import numpy as np
import pytest

from quboplan.qubo import QuboModel, block_size, decode, var_index

from oracles import four_var_fixture, random_grid_model


def test_var_index_examples():
    assert var_index((5, 5, 9), 0, 3, (2, 1)) == 86
    assert var_index((7, 4, 3), 0, 0, (0, 0)) == 0
    assert var_index((5, 5, 9), 1, 0, (0, 0)) == 250


def test_var_index_bijective():
    dims = (3, 4, 2)
    seen = set()
    for robot in range(2):
        for t in range(3):
            for i in range(3):
                for j in range(4):
                    seen.add(var_index(dims, robot, t, (i, j)))
    assert len(seen) == 2 * block_size(dims)
    assert seen == set(range(2 * block_size(dims)))


def test_var_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        var_index((3, 3, 2), 0, 3, (0, 0))
    with pytest.raises(ValueError):
        var_index((3, 3, 2), 0, 0, (3, 0))
    with pytest.raises(ValueError):
        var_index((3, 3, 2), -1, 0, (0, 0))


def test_decode_roundtrip():
    dims = (4, 5, 3)
    rng = np.random.default_rng(0)
    triples = set()
    for _ in range(25):
        triples.add((int(rng.integers(2)), int(rng.integers(4)),
                     (int(rng.integers(4)), int(rng.integers(5)))))
    ones = {var_index(dims, r, t, c) for r, t, c in triples}
    decoded = decode(ones, dims, 2)
    rebuilt = {
        (r, t, c)
        for r, per_t in enumerate(decoded)
        for t, cells in enumerate(per_t)
        for c in cells
    }
    assert rebuilt == triples


def test_decode_examples():
    assert decode({0}, (5, 5, 2), 1) == [[{(0, 0)}, set(), set()]]
    assert decode({0, 31}, (5, 5, 2), 1) == [[{(0, 0)}, {(1, 1)}, set()]]
    assert decode(set(), (5, 5, 2), 1) == [[set(), set(), set()]]


def test_add_canonicalizes_and_cancels():
    m = QuboModel(6)
    m.add(3, 5, 2.0)
    m.add(5, 3, 2.0)
    assert m.coeffs == {(3, 5): 4.0}
    m.add(2, 2, -5.0)
    assert m.get(2, 2) == -5.0
    m.add(1, 4, 3.0)
    m.add(1, 4, -3.0)
    assert (1, 4) not in m.coeffs


def test_energy_known_values():
    m = four_var_fixture()
    assert m.energy({0, 3}) == -11.0
    assert m.energy(set()) == 0.0
    assert m.energy({0, 1, 2, 3}) == 2.0


def test_energy_all_zero_returns_constant():
    m = QuboModel(3, constant=4.5)
    m.add(0, 1, 2.0)
    assert m.energy(set()) == 4.5


def test_energy_matches_symmetric_matrix_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        m = random_grid_model(rng, n)
        full = np.zeros((n, n))
        for (a, b), w in m.coeffs.items():
            if a == b:
                full[a, a] += w
            else:
                full[a, b] += w / 2
                full[b, a] += w / 2
        x = (rng.random(n) < 0.5).astype(float)
        expected = float(x @ full @ x) + m.constant
        assert m.energy({i for i in range(n) if x[i]}) == pytest.approx(expected, abs=1e-9)


def test_text_roundtrip():
    # Header "num_vars constant", then one "a b w" line per coefficient in
    # sorted key order, each float written back exactly by repr.
    m = QuboModel(3, constant=1.25)
    m.add(2, 1, 0.5).add(0, 0, -3.0).add(0, 2, 0.1).add(1, 1, 1 / 3)
    assert m.to_text() == (
        "3 1.25\n0 0 -3.0\n0 2 0.1\n1 1 0.3333333333333333\n1 2 0.5\n"
    )


def test_no_stored_zeros_after_random_churn():
    rng = np.random.default_rng(3)
    m = QuboModel(8)
    for _ in range(300):
        a, b = int(rng.integers(8)), int(rng.integers(8))
        m.add(a, b, float(rng.integers(-3, 4)))
    assert all(w != 0.0 for w in m.coeffs.values())
