"""The library writes nothing to stdout: benchmark and CLI runs print
their own results there, and a stray line from a library call corrupts
them."""

import warnings

import numpy as np
import pytest

import rankworth as rw

METHODS = ("iterative_scaling", "quasi_newton", "limited_memory_quasi_newton")


@pytest.mark.parametrize("name", ["pudding", "abcd"])
def test_library_calls_print_nothing(name, request, capfd, tmp_path):
    table = request.getfixturevalue(name)
    capfd.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for method in METHODS:
            fitted = rw.fit(table, method=method)
            rw.summarize(fitted)
            rw.quasi_variances(fitted)
        path = tmp_path / "model.json"
        rw.write_model_json(fitted, path)
        rw.read_model_json(path)
        grouped = rw.group_rankings(table, np.arange(1, table.n_rows + 1))
        x = np.arange(table.n_rows, dtype=float)
        tree = rw.grow_tree(grouped, rw.CovariateFrame.from_dict({"x": x}),
                            minsize=2, maxdepth=2)
        rw.predict_node(tree, {"x": 0.0})
    assert capfd.readouterr().out == ""


def test_readers_and_writer_print_nothing(capfd, tmp_path):
    # the bundled strict-orders file, and the bundled pudding table written
    # as a rankings CSV with weights and read back
    from rankworth.datasets import load_pudding, netflix_shape_soc_path

    capfd.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        orderings, freqs = rw.read_preflib_soc(netflix_shape_soc_path())
        rw.from_orderings(orderings, sorted(orderings.names), weights=freqs)
        path = tmp_path / "pudding.csv"
        rw.write_rank_csv(load_pudding(), path)
        rw.read_rank_csv(path)
    assert capfd.readouterr().out == ""
