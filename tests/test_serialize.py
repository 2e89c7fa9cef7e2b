import numpy as np
import pytest

from acx.serialize import dumps_canonical


def test_non_finite_floats_are_written_as_strings():
    payload = {"nan": float("nan"), "up": np.inf, "down": np.float64(-np.inf),
               "x": 0.1}
    assert dumps_canonical(payload) == (
        '{"down": "-inf", "nan": "nan", "up": "inf", "x": 0.10000000000000001}'
        "\n")


def test_an_unserializable_value_is_refused():
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps_canonical({"s": {1, 2}})
