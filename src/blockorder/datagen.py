"""Synthetic benchmark generator.

Datasets come from randomly drawn block-structured linear models driven by
independent non-Gaussian noise: a block-lower-triangular strength matrix
(within-block entries form a sub-chain, so later blocks never feed earlier
ones) whose parent-induced standard deviations land in [0.5, 1.5], noise
scales in [0.5, 1.5], and noise built by power-transforming Gaussians with
exponents from [0.5, 0.8] or [1.2, 2.0] (sub- and super-Gaussian
respectively).  A fixed five-variable example whose blocks are glued by two
latent confounders is available as its own mode.  Variable labels of the
random modes are permuted at the end so position carries no information.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import DataMatrix
from .model import BlockOrdering, ChainGraphModel, mixing_from_adjacency, simulate

MODES = ("chain_graph", "dag", "eq4_example")

PARENT_STD_RANGE = (0.5, 1.5)
NOISE_STD_RANGE = (0.5, 1.5)
RAW_WEIGHT_RANGE = (0.1, 1.0)
SUB_GAUSSIAN_EXPONENTS = (0.5, 0.8)
SUPER_GAUSSIAN_EXPONENTS = (1.2, 2.0)

# The fixed example uses clearly super-Gaussian noise throughout: random
# exponents can land close to 1, and near-Gaussian confounders make the
# blocks statistically unidentifiable at moderate sample sizes.
EXAMPLE_EXPONENT = 2.0
# Its edges j -> i as {(i, j): b_ij}, and per block the loadings of the
# block's noise terms on the block's latent factor.
EXAMPLE_STRENGTHS = {(1, 0): 0.8, (2, 1): 0.8, (3, 2): 0.8, (4, 0): 0.8, (4, 3): 0.8}
EXAMPLE_LOADINGS = ((0.7, 0.7), (), (0.7, 0.7))

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class GenSpec:
    p: int
    n: int
    seed: int
    mode: str

    def __post_init__(self):
        if self.p < 1:
            raise InvalidInputError("need p >= 1")
        if self.n < 2:
            raise InvalidInputError("need n >= 2")
        if self.seed < 0:
            raise InvalidInputError("seed must be >= 0")
        if self.mode not in MODES:
            raise InvalidInputError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "eq4_example" and self.p != 5:
            raise InvalidInputError("the five-variable example requires p=5")


def derive_seed(seed: int, index: int) -> int:
    """Child seed for trial ``index``, splitmix-style, collision-resistant."""
    if seed < 0:
        raise InvalidInputError("seed must be >= 0")
    x = (int(seed) ^ (int(index) * 0x9E3779B97F4A7C15)) & _MASK64
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _draw_exponent(rng: np.random.Generator) -> float:
    lo1, hi1 = SUB_GAUSSIAN_EXPONENTS
    lo2, hi2 = SUPER_GAUSSIAN_EXPONENTS
    span1 = hi1 - lo1
    u = rng.uniform(0.0, span1 + (hi2 - lo2))
    return lo1 + u if u <= span1 else lo2 + (u - span1)


def _power_noise(rng: np.random.Generator, n: int, q: float) -> np.ndarray:
    z = rng.standard_normal(n)
    e = np.sign(z) * np.abs(z) ** q
    e = e - e.mean()
    return e / e.std()


def _implied_within_cov(b: np.ndarray, blocks, noise_covs) -> tuple[np.ndarray, ...]:
    """Residual covariance per block once earlier variables are projected out."""
    out = []
    for block, cov_e in zip(blocks, noise_covs):
        members = list(block)
        inner = b[np.ix_(members, members)]
        mix = mixing_from_adjacency(inner)
        out.append(mix @ cov_e @ mix.T)
    return tuple(out)


def _draw_model(rng: np.random.Generator, p: int, singletons: bool) -> ChainGraphModel:
    m = p if singletons else int(rng.integers(1, p + 1))
    perm = rng.permutation(p)
    cuts = np.sort(rng.choice(p - 1, size=m - 1, replace=False)) + 1 if m > 1 else []
    blocks = [tuple(sorted(int(v) for v in part)) for part in np.split(perm, cuts)]

    max_parents = int(rng.integers(1, p + 1))
    noise_std = rng.uniform(*NOISE_STD_RANGE, size=p)

    # Each variable draws up to max_parents parents from everything generated
    # before it (earlier blocks plus earlier members of its own block, so the
    # matrix stays block-lower-triangular), and its incoming weights are
    # rescaled so the parents contribute a standard deviation in the target
    # range.  sigma_x tracks the model-implied covariance of the variables
    # generated so far, in generation order.
    b = np.zeros((p, p))
    generated: list[int] = []
    sigma_x = np.zeros((0, 0))
    for block in blocks:
        for v in block:
            var_own = noise_std[v] ** 2
            if generated:
                count = min(max_parents, len(generated))
                parents = sorted(
                    int(x) for x in rng.choice(len(generated), size=count, replace=False)
                )
                weights = rng.uniform(*RAW_WEIGHT_RANGE, size=count)
                weights *= rng.choice(np.array([-1.0, 1.0]), size=count)
                parent_var = float(weights @ sigma_x[np.ix_(parents, parents)] @ weights)
                target = rng.uniform(*PARENT_STD_RANGE)
                weights *= target / math.sqrt(parent_var)
                b[v, [generated[q] for q in parents]] = weights
                row = np.zeros(len(generated))
                row[parents] = weights
                cross = row @ sigma_x
                var_v = float(row @ cross) + var_own
                sigma_x = np.block(
                    [[sigma_x, cross[:, None]], [cross[None, :], np.array([[var_v]])]]
                )
            else:
                sigma_x = np.array([[var_own]])
            generated.append(v)
    noise_covs = tuple(np.diag(noise_std[list(block)] ** 2) for block in blocks)
    within = _implied_within_cov(b, blocks, noise_covs)
    return ChainGraphModel(b, BlockOrdering(tuple(blocks)), noise_std, within)


def random_chain_graph(p: int, seed: int) -> ChainGraphModel:
    """Random block-structured model with the documented parameter ranges."""
    if p < 1:
        raise InvalidInputError("need p >= 1")
    return _draw_model(np.random.default_rng(seed), p, singletons=False)


def _draw_noise(rng: np.random.Generator, model: ChainGraphModel, n: int) -> np.ndarray:
    e = np.empty((len(model.noise_std), n))
    for block in model.ordering.blocks:
        for v in block:
            e[v] = model.noise_std[v] * _power_noise(rng, n, _draw_exponent(rng))
    return e


def _permute_model(rng, x: np.ndarray, model: ChainGraphModel):
    """Relabel variables by a random permutation; returns (x_new, model)."""
    perm = rng.permutation(x.shape[0])
    x_new = np.empty_like(x)
    x_new[perm] = x
    b_new = np.zeros_like(model.b)
    b_new[np.ix_(perm, perm)] = model.b
    noise_new = np.empty_like(model.noise_std)
    noise_new[perm] = model.noise_std
    blocks_new = []
    within_new = []
    for block, cov in zip(model.ordering.blocks, model.within_block_cov):
        mapped = perm[np.array(block)]
        order = np.argsort(mapped)
        blocks_new.append(tuple(int(v) for v in mapped[order]))
        within_new.append(cov[np.ix_(order, order)])
    model = ChainGraphModel(
        b_new, BlockOrdering(tuple(blocks_new)), noise_new, tuple(within_new)
    )
    return x_new, model


def confounded_example_model() -> ChainGraphModel:
    """The fixed 5-variable chain graph with confounders inside blocks 1 and 3.

    Blocks are {0,1} < {2} < {3,4}, with the edges of ``EXAMPLE_STRENGTHS``.
    Noise pairs (e0, e1) and (e3, e4) share unit-variance latent factors with
    the ``EXAMPLE_LOADINGS``; every e_i has unit variance.
    """
    b = np.zeros((5, 5))
    for (i, j), strength in EXAMPLE_STRENGTHS.items():
        b[i, j] = strength
    blocks = ((0, 1), (2,), (3, 4))
    (c1, c2), _, (c4, c5) = EXAMPLE_LOADINGS
    noise_covs = (
        np.array([[1.0, c1 * c2], [c1 * c2, 1.0]]),
        np.array([[1.0]]),
        np.array([[1.0, c4 * c5], [c4 * c5, 1.0]]),
    )
    return ChainGraphModel(
        b,
        BlockOrdering(blocks),
        np.ones(5),
        _implied_within_cov(b, blocks, noise_covs),
    )


def _eq4_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    e = np.empty((5, n))
    (c1, c2), _, (c4, c5) = EXAMPLE_LOADINGS
    factor_f = _power_noise(rng, n, EXAMPLE_EXPONENT)
    factor_g = _power_noise(rng, n, EXAMPLE_EXPONENT)
    for row, (c, factor) in enumerate(
        [(c1, factor_f), (c2, factor_f), (0.0, None), (c4, factor_g), (c5, factor_g)]
    ):
        idio = _power_noise(rng, n, EXAMPLE_EXPONENT)
        if factor is None:
            e[row] = idio
        else:
            e[row] = c * factor + math.sqrt(1.0 - c * c) * idio
    return e


def generate_dataset(spec: GenSpec):
    """Draw a model and a dataset from it; returns ``(data, truth)``.

    Random modes relabel the variables at the end; the fixed example keeps
    its natural labels.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.mode == "eq4_example":
        model = confounded_example_model()
        return simulate(model, _eq4_noise(rng, spec.n)), model
    model = _draw_model(rng, spec.p, singletons=spec.mode == "dag")
    x = simulate(model, _draw_noise(rng, model, spec.n))
    x_new, model = _permute_model(rng, x.values, model)
    return DataMatrix(x_new, x.variable_ids), model
