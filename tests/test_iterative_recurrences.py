"""``repro.iterative.program``: Table 1's recurrences as program text."""

import numpy as np
import pytest

from repro.frontend import parse_program
from repro.iterative import FAMILIES, Model, make_powers, make_sums, program

MODELS = [Model.linear(), Model.exponential(), Model.skip(2), Model.skip(4)]


def test_general_exponential_with_b_is_table_1():
    assert program("general", Model.exponential(), 8, with_b=True) == (
        "input A(n, n);\n"
        "input T0(n, p);\n"
        "input B(n, p);\n"
        "P2 := A * A;\n"
        "P4 := P2 * P2;\n"
        "S2 := A + eye(n);\n"
        "S4 := P2 * S2 + S2;\n"
        "T1 := A * T0 + B;\n"
        "T2 := A * T1 + B;\n"
        "T4 := P2 * T2 + S2 * B;\n"
        "T8 := P4 * T4 + S4 * B;\n"
        "output T8;\n")


def test_skip_steps_read_the_skip_power():
    text = program("sums", Model.skip(4), 12)
    assert "S12 := P4 * S8 + S4;" in text
    assert "P8" not in text  # only P_h up to the horizon s = 4


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
@pytest.mark.parametrize("k", [4, 8, 16])
@pytest.mark.parametrize("family", FAMILIES)
def test_every_program_parses_with_its_view_last(family, model, k):
    for with_b in (False, True) if family == "general" else (False,):
        parsed = parse_program(program(family, model, k, with_b))
        view = {"powers": "P", "sums": "S", "general": "T"}[family]
        assert parsed.outputs == (f"{view}{k}",)
        assert parsed.view_names[-1] == parsed.outputs[0]


def test_one_iteration_is_the_first_iterate(rng):
    a = rng.standard_normal((6, 6))
    powers = make_powers("REEVAL", a, 1, Model.linear())
    sums = make_sums("REEVAL", a, 1, Model.exponential())
    u, v = rng.standard_normal((2, 6, 1))
    powers.refresh(u, v)
    sums.refresh(u, v)
    assert np.array_equal(powers.result(), a + u @ v.T)
    assert np.array_equal(sums.result(), np.eye(6))


def test_errors_name_the_cause():
    with pytest.raises(ValueError, match="unknown family 'chains'"):
        program("chains", Model.linear(), 4)
    with pytest.raises(ValueError, match="powers takes no B input"):
        program("powers", Model.linear(), 4, with_b=True)
    with pytest.raises(ValueError, match="power of two"):
        program("sums", Model.exponential(), 12)
