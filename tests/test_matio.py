import pytest

from ppm import matio
from ppm.errors import InputError


def test_prime_and_dimension_must_be_json_integers():
    for p in [3.7, 3.0, "3", True]:
        with pytest.raises(InputError):
            matio.context_of({"p": p})
    assert matio.context_of({"p": 3}).p == 3
    for n in [1.0, "1", True]:
        with pytest.raises(InputError):
            matio.matrix_from_doc({"n": n, "entries": [["1"]]})
        with pytest.raises(InputError):
            matio.gens_from_doc({"n": n, "gens": [[["1"]]]})


def test_boolean_and_decimal_entries_are_rejected():
    for entry in [True, False, 1.5, "1.5", "2e1"]:
        with pytest.raises(InputError):
            matio.matrix_from_doc({"n": 1, "entries": [[entry]]})
    assert matio.matrix_from_doc({"n": 1, "entries": [[2]]}).rows == ((2,),)
