"""The package's public surface: exactly the names in ``blockorder.__all__``."""

import blockorder

PUBLIC = {
    # search
    "fit", "fit_large", "SearchConfig", "ScoreRecord",
    # data
    "DataMatrix", "center",
    # model
    "BlockOrdering", "ChainGraphModel", "read_model_json", "write_model_json",
    # generator
    "GenSpec", "generate_dataset", "random_chain_graph", "confounded_example_model", "derive_seed",
    # evaluation
    "order_error_count", "scatter_pairs",
    # errors
    "BlockOrderError", "DegenerateInputError", "InvalidInputError", "ModelInvalidError",
    "SearchTooLargeError", "SingularMatrixError",
}


def test_all_is_exactly_the_public_api():
    assert len(blockorder.__all__) == len(set(blockorder.__all__)) == 23
    assert set(blockorder.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in blockorder.__all__:
        assert getattr(blockorder, name) is not None, name


def test_star_import_binds_only_the_public_api():
    namespace: dict = {}
    exec("from blockorder import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
