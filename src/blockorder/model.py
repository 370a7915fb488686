"""Chain-graph model types, the adjacency/mixing relation, and forward simulation.

A model is an adjacency matrix ``b`` (``b[i, j]`` is the strength of the
edge j -> i), an ordered partition of the variables into blocks such that no
later block influences an earlier one, and per-variable noise scales.
Within-block dependence (confounding) lives in the noise, not in ``b``,
except where a hand-built example carries explicit within-block edges, which
the type permits.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, ModelInvalidError
from .linalg import DataMatrix, center


@dataclass(frozen=True)
class BlockOrdering:
    """Ordered partition of variable indices into disjoint non-empty blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        canon = []
        for block in self.blocks:
            members = tuple(sorted(int(i) for i in block))
            if not members:
                raise InvalidInputError("blocks must be non-empty")
            if len(set(members)) != len(members):
                raise InvalidInputError(f"duplicate member within block {members}")
            canon.append(members)
        object.__setattr__(self, "blocks", tuple(canon))
        if not canon:
            raise InvalidInputError("ordering must contain at least one block")
        flat = [i for block in canon for i in block]
        if len(set(flat)) != len(flat):
            raise InvalidInputError("blocks must be pairwise disjoint")

    def __len__(self):
        return len(self.blocks)

    def variables(self) -> frozenset[int]:
        return frozenset(i for block in self.blocks for i in block)

    def level_of(self) -> dict[int, int]:
        """Map each variable to the index of its block."""
        return {i: level for level, block in enumerate(self.blocks) for i in block}

    def is_partition_of(self, ids) -> bool:
        return self.variables() == frozenset(int(i) for i in ids)

    def to_lists(self) -> list[list[int]]:
        return [list(block) for block in self.blocks]

    def backward_mask(self, p: int) -> np.ndarray:
        """Mask of the [i, j] where an edge j -> i would run from a later block
        into an earlier one; the blocks must partition 0..p-1."""
        if not self.is_partition_of(range(p)):
            raise InvalidInputError("ordering must partition 0..p-1")
        level_map = self.level_of()
        levels = np.array([level_map[i] for i in range(p)])
        return levels[:, None] < levels[None, :]


def check_block_lower_triangular(b, ordering: BlockOrdering) -> bool:
    """True iff no entry lets a later block influence an earlier one."""
    mat = np.asarray(b, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidInputError("adjacency matrix must be square")
    return not np.any(mat[ordering.backward_mask(mat.shape[0])] != 0.0)


def mixing_from_adjacency(b) -> np.ndarray:
    """A = (I - B)^-1, mapping external influences to observations."""
    mat = np.asarray(b, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidInputError("adjacency matrix must be square")
    ident = np.eye(mat.shape[0])
    try:
        mixing = np.linalg.solve(ident - mat, ident)
    except np.linalg.LinAlgError as exc:
        raise ModelInvalidError("I - B is singular") from exc
    if not np.all(np.isfinite(mixing)):
        raise ModelInvalidError("I - B is numerically singular")
    return mixing


@dataclass(frozen=True, eq=False)
class ChainGraphModel:
    """Adjacency matrix, its block ordering, and per-variable noise scales.

    ``within_block_cov`` optionally records, per block, the covariance of the
    block's variables once every earlier variable's effect is removed; for
    generated models it is model-implied, for fitted models it is estimated.
    """

    b: np.ndarray
    ordering: BlockOrdering
    noise_std: np.ndarray
    within_block_cov: tuple[np.ndarray, ...] | None = field(default=None)

    def __post_init__(self):
        mat = np.asarray(self.b, dtype=np.float64)
        noise = np.asarray(self.noise_std, dtype=np.float64)
        object.__setattr__(self, "b", mat)
        object.__setattr__(self, "noise_std", noise)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidInputError("adjacency matrix must be square")
        p = mat.shape[0]
        if noise.shape != (p,):
            raise InvalidInputError("noise_std must have one entry per variable")
        if not np.all(noise > 0.0):
            raise InvalidInputError("noise_std entries must be strictly positive")
        if np.any(np.diag(mat) != 0.0):
            raise InvalidInputError("adjacency diagonal must be zero")
        if not check_block_lower_triangular(mat, self.ordering):
            raise ModelInvalidError("adjacency matrix does not respect the block ordering")
        if self.within_block_cov is not None:
            covs = tuple(np.asarray(c, dtype=np.float64) for c in self.within_block_cov)
            object.__setattr__(self, "within_block_cov", covs)
            if len(covs) != len(self.ordering.blocks):
                raise InvalidInputError("need one within-block covariance per block")
            for block, cov in zip(self.ordering.blocks, covs):
                if cov.shape != (len(block), len(block)):
                    raise InvalidInputError("within-block covariance shape mismatch")

    @property
    def n_variables(self) -> int:
        return self.b.shape[0]


def simulate(model: ChainGraphModel, e) -> DataMatrix:
    """Propagate a p-by-n noise matrix through the model and center the result."""
    noise = np.asarray(e, dtype=np.float64)
    if noise.ndim != 2 or noise.shape[0] != model.n_variables:
        raise InvalidInputError(
            f"noise must be ({model.n_variables}, n), got {noise.shape}"
        )
    mixing = mixing_from_adjacency(model.b)
    return center(mixing @ noise)


def model_to_dict(model: ChainGraphModel, params: dict | None = None) -> dict:
    """JSON-ready representation shared by truth files and fitted output."""
    within = model.within_block_cov or ()
    return {
        "blocks": model.ordering.to_lists(),
        "b": model.b.tolist(),
        "noise_std": model.noise_std.tolist(),
        "within_block_cov": [{"block": idx, "cov": cov.tolist()} for idx, cov in enumerate(within)],
        "params": dict(params or {}),
    }


def model_from_dict(data: dict) -> ChainGraphModel:
    ordering = BlockOrdering(tuple(tuple(block) for block in data["blocks"]))
    within = None
    if data.get("within_block_cov"):
        entries = sorted(data["within_block_cov"], key=lambda item: item["block"])
        indices = [item["block"] for item in entries]
        if indices != list(range(len(ordering.blocks))):
            raise InvalidInputError(
                f"within_block_cov block indices {indices} must be exactly 0..{len(ordering.blocks) - 1}"
            )
        within = tuple(np.asarray(item["cov"], dtype=np.float64) for item in entries)
    return ChainGraphModel(
        b=np.asarray(data["b"], dtype=np.float64),
        ordering=ordering,
        noise_std=np.asarray(data["noise_std"], dtype=np.float64),
        within_block_cov=within,
    )


def write_model_json(path, model: ChainGraphModel, params: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model, params), handle, indent=2)
        handle.write("\n")


def read_model_json(path) -> ChainGraphModel:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))
