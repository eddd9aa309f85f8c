"""Untrusted inputs end in exit code 1 (a check failed) or 3 (a usage error),
never in a traceback: the k311 certificate data, and objective, vector,
pattern and graph strings sent through the CLI."""

import copy
import json
import time

import pytest

from inducibility import certificates
from inducibility.cli import main
from inducibility.polynomials import parse_rational

K311 = certificates._load_k311_data()
BAD_DATA = [None, 0.5, True, [], {}, [["1"]], "1e3", "x"]  # never a rational
EXIT_FAIL, EXIT_USAGE = 1, 3


def _certify_k311(monkeypatch, data) -> int:
    monkeypatch.setattr(certificates, "_load_k311_data", lambda: data)
    return main(["certify", "k311", "--quiet"])


def _set(data, path, value):
    """data with the datum at path (a key and index list) replaced."""
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.mark.parametrize("path, value", [
    (["gram_matrices", "Q1", 0, 0], None),
    (["shift"], ["272/1000"]),
    (["gram_matrices", "Q2"], "not a matrix"),
    (["q_coefficients_ascending", 3], 0.5),
])
def test_k311_damaged_data_is_a_usage_error(monkeypatch, capsys, path, value):
    """A None Gram entry, a list shift and a non-list Gram matrix once raised a
    TypeError, and a float q coefficient was read as the exact 1/2."""
    assert _certify_k311(monkeypatch, _set(K311, path, value)) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: k311 data: ")


@pytest.mark.parametrize("field", ["q_coefficients_ascending", "r1_coefficients_ascending"])
def test_k311_zero_polynomial_fails(monkeypatch, capsys, field):
    """A zero q divides no eliminant (division by it raised ZeroDivisionError)
    and a zero multiplier certifies nothing, though the zero polynomial has no
    coefficient to fail a positivity test."""
    assert _certify_k311(monkeypatch, _set(K311, [field], ["0", "0"])) == EXIT_FAIL


def test_exponent_vector_is_refused_quickly(capsys):
    """"1e-1000000" spells a million-digit denominator: it is refused before
    any arithmetic, so the run ends at once."""
    start = time.perf_counter()
    code = main(["density", "--objective", "KP 2,1", "--vector", '{"parts":["1e-1000000"]}'])
    assert code == EXIT_USAGE and time.perf_counter() - start < 1
    assert "'1e-1000000' is not a rational" in capsys.readouterr().err


def test_opt_starts_above_the_limit_is_refused_quickly(capsys):
    """--starts 10**9 would run for days (and fill memory with start points):
    above 10,000 it is refused before any search."""
    start = time.perf_counter()
    code = main(["opt", "--objective", "KP 2,1,1,1", "--starts", "10001"])
    assert code == EXIT_USAGE and time.perf_counter() - start < 1
    assert "--starts must be from 0 to 10000" in capsys.readouterr().err


def _hypothesis():
    hyp = pytest.importorskip("hypothesis")
    return hyp, pytest.importorskip("hypothesis.strategies")


def test_k311_broken_identity_fails(monkeypatch, capsys):
    """Well-formed data that breaks a checked identity ends in exit 1: a
    changed q coefficient (q no longer divides the eliminant), a Gram matrix
    with a non-positive diagonal entry or made asymmetric (not positive
    definite), a non-positive multiplier coefficient, or a non-positive
    epsilon bound."""
    hyp, st = _hypothesis()
    grams = sorted(K311["gram_matrices"])
    nonpositive = st.fractions(max_value=0, max_denominator=10**6).map(str)

    def q_changed(draw):
        i = draw(st.integers(0, len(K311["q_coefficients_ascending"]) - 1))
        delta = draw(st.integers(-10**12, 10**12).filter(bool))
        old = int(K311["q_coefficients_ascending"][i])
        return ["q_coefficients_ascending", i], str(old + delta)

    def diagonal(draw):
        i = draw(st.integers(0, 5))
        return ["gram_matrices", draw(st.sampled_from(grams)), i, i], draw(nonpositive)

    def asymmetric(draw):
        name, i, j = draw(st.sampled_from(grams)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
        hyp.assume(i != j)
        old = parse_rational(K311["gram_matrices"][name][i][j])
        return ["gram_matrices", name, i, j], str(old + draw(st.fractions().filter(bool)))

    def multiplier(draw):
        i = draw(st.integers(0, len(K311["r1_coefficients_ascending"]) - 1))
        return ["r1_coefficients_ascending", i], draw(nonpositive)

    def epsilon(draw):
        return ["epsilon_lower_bound"], draw(nonpositive)

    @hyp.settings(max_examples=25, deadline=None, derandomize=True)
    @hyp.given(st.data(), st.sampled_from([q_changed, diagonal, asymmetric, multiplier, epsilon]))
    def check(data, damage):
        path, value = damage(data.draw)
        assert _certify_k311(monkeypatch, _set(K311, path, value)) == EXIT_FAIL, (path, value)
        capsys.readouterr()

    check()


def test_k311_shape_and_type_damage_is_a_usage_error(monkeypatch, capsys):
    """Data of the wrong shape or type ends in exit 3 with a message naming the
    k311 data: a missing or non-rational datum, a list that is empty or not a
    list, Gram matrices that are not the four 6x6 matrices."""
    hyp, st = _hypothesis()
    grams = sorted(K311["gram_matrices"])
    bad = st.sampled_from(BAD_DATA)
    lists = ["q_coefficients_ascending", "r1_coefficients_ascending"]
    rows = K311["gram_matrices"]["R0"]

    def scalar(draw):
        return _set(K311, [draw(st.sampled_from(["shift", "epsilon_lower_bound"]))], draw(bad))

    def missing(draw):
        data = copy.deepcopy(K311)
        del data[draw(st.sampled_from(sorted(set(data) - {"description"})))]
        return data

    def coefficient_list(draw):
        return _set(K311, [draw(st.sampled_from(lists))],
                    draw(st.sampled_from([None, 0.5, True, [], {}, "1"])))

    def coefficient(draw):
        field = draw(st.sampled_from(lists))
        return _set(K311, [field, draw(st.integers(0, len(K311[field]) - 1))], draw(bad))

    def gram_entry(draw):
        path = ["gram_matrices", draw(st.sampled_from(grams)), draw(st.integers(0, 5)),
                draw(st.integers(0, 5))]
        return _set(K311, path, draw(bad))

    def gram_shape(draw):
        name = draw(st.sampled_from(grams))
        return _set(K311, ["gram_matrices", name], draw(st.sampled_from(
            [None, "x", [], rows[:5], rows + rows[:1], rows[:5] + [rows[5][:5]],
             rows[:5] + [rows[5] + ["1"]], rows[:5] + ["x"]])))

    def gram_names(draw):
        matrices = dict(K311["gram_matrices"])
        if draw(st.booleans()):
            del matrices[draw(st.sampled_from(grams))]
        else:
            matrices["Q4"] = rows
        return _set(K311, ["gram_matrices"], draw(st.sampled_from([matrices, None, [], "x"])))

    def top_level(draw):
        return draw(st.sampled_from([None, [], "x", 1, [K311]]))

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(st.data(), st.sampled_from([scalar, missing, coefficient_list, coefficient,
                                           gram_entry, gram_shape, gram_names, top_level]))
    def check(data, damage):
        assert _certify_k311(monkeypatch, damage(data.draw)) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: k311 data")

    check()


OBJECTIVES = ["KP 2,1", "KP 2,1,1", "KP 3", "SUM 1*KP 2,1 + -1/2*KP 1,1,1"]
VECTORS = ['{"parts":["1/2","1/4"]}', '{"x0":"1/3","parts":["1/3","1/3"]}', '{"parts":[]}']
PATTERNS = ['{"b": {"1": 1, "2": 0}, "alpha": "1/2"}', '{"b": {}}']
GRAPH = "n 5\n0 1\n1 2\n2 3\n3 4\n"


def test_fuzzed_cli_strings_end_in_an_exit_code(monkeypatch, capsys, tmp_path):
    """Objective, vector, pattern and graph strings, each a known-good string
    with up to two characters edited or up to eight characters of free text,
    make density and gradients return 0, 1 or 3 and never raise. Digits stay
    up to 2, so k stays at most 6 and no run needs a large class table."""
    hyp, st = _hypothesis()
    monkeypatch.chdir(tmp_path)
    chars = st.sampled_from('KPSUMkp*+-/,.@ 012e"{}[]:\n_x')

    @st.composite
    def edited(draw, good):
        text = draw(st.sampled_from(good))
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(text)))
            op = draw(st.sampled_from(["insert", "delete", "replace"]))
            c = draw(chars)
            text = (text[:i] + c + text[i:] if op == "insert"
                    else text[:i] + text[i + 1:] if op == "delete"
                    else text[:i] + c + text[i + 1:])
        return text

    def strings(good):
        return st.one_of(edited(good), st.text(chars, max_size=8),
                         st.text(max_size=8).filter(lambda s: "@" not in s))

    json_values = st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
                  st.text(chars, max_size=6)),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
            st.sampled_from(["parts", "x0", "b", "alpha", "1", "2"]), inner, max_size=3),
        max_leaves=8)
    vectors = st.one_of(strings(VECTORS), json_values.map(json.dumps))
    patterns = st.one_of(strings(PATTERNS), json_values.map(json.dumps))

    @hyp.settings(max_examples=150, deadline=None, derandomize=True)
    @hyp.given(objective=strings(OBJECTIVES), vector=vectors, pattern=patterns,
               graph=strings([GRAPH]))
    def check(objective, vector, pattern, graph):
        (tmp_path / "g.txt").write_text(graph)
        for args in (["density", "--objective", objective, "--vector", vector],
                     ["density", "--objective", objective, "--graph", "g.txt"],
                     ["gradients", "--objective", objective, "--vector", vector,
                      "--pattern", pattern]):
            assert main(args + ["--quiet"]) in (0, 1, 3), args
        capsys.readouterr()

    check()


def _gamma_table(k: int) -> dict:
    """A valid gamma table: one entry per class on k vertices, value 1 on the clique."""
    from inducibility.graphs import iso_classes
    return {"k": k, "values": [{"n": k, "edges": [list(e) for e in g.edges()],
                                "value": "1" if len(g.edges()) == k * (k - 1) // 2 else "0"}
                               for g in iso_classes(k)]}


def _damaged(k: int, index: int, **entry) -> dict:
    """_gamma_table(k) with the fields of its entry at index replaced."""
    table = _gamma_table(k)
    table["values"][index] = {**table["values"][index], **entry}
    return table


def test_damaged_gamma_table_is_a_usage_error(capsys, tmp_path):
    """A gamma-table file with a class missing or repeated, an entry whose n
    is not the integer k, a self-loop or out-of-range edge, a value that is not an
    exact rational (a float, a bool, 1/0, an exponent), or JSON that is not
    an object ends in exit 3 with an error line, never a traceback."""
    hyp, st = _hypothesis()
    path = tmp_path / "gamma.json"
    bad_values = [0.5, 1.0, True, False, "1/0", "1e3", "2E-1", 1e300, None, [], {}]

    @st.composite
    def damaged(draw):
        k = draw(st.sampled_from([3, 4]))
        table = _gamma_table(k)
        values = table["values"]
        i = draw(st.integers(0, len(values) - 1))
        entry = values[i]
        u = draw(st.integers(0, k - 1))
        kind = draw(st.sampled_from(["missing", "repeated", "n", "loop", "range", "value",
                                     "not-object"]))
        if kind == "missing":
            del values[i]
        elif kind == "repeated":  # the same class again, relabelled by a permutation
            perm = draw(st.permutations(range(k)))
            values.append({**entry, "edges": [[perm[a], perm[b]] for a, b in entry["edges"]]})
        elif kind == "n":
            entry["n"] = draw(st.one_of(st.integers(0, 9).filter(lambda n: n != k),
                                        st.sampled_from([float(k), str(k), True, None])))
        elif kind == "loop":
            entry["edges"] = entry["edges"] + [[u, u]]
        elif kind == "range":
            far = draw(st.sampled_from([k, k + 1, 64, -1]))
            entry["edges"] = entry["edges"] + [draw(st.sampled_from([[u, far], [far, u]]))]
        elif kind == "value":
            entry["value"] = draw(st.sampled_from(bad_values))
        else:
            return draw(st.one_of(st.lists(st.integers(), max_size=3), st.text(max_size=5),
                                  st.integers(), st.none(), st.booleans(),
                                  st.just([table])))
        return table

    @hyp.settings(max_examples=80, deadline=None, derandomize=True)
    @hyp.given(damaged())
    @hyp.example({**_gamma_table(3), "values": _gamma_table(3)["values"][1:]})  # missing
    @hyp.example({**_gamma_table(3), "values": _gamma_table(3)["values"]
                  + [{"n": 3, "edges": [[1, 2]], "value": "7"}]})  # repeated, relabelled
    @hyp.example(_damaged(4, 2, n=3))
    @hyp.example(_damaged(3, 0, n=3.0))  # n equal to k, but not an integer
    @hyp.example(_damaged(3, 0, edges=[[1, 1]]))
    @hyp.example(_damaged(3, 1, edges=[[0, 3]]))
    @hyp.example(_damaged(4, 0, edges=[[-1, 2]]))
    @hyp.example(_damaged(3, 0, value=0.5))
    @hyp.example(_damaged(3, 0, value=True))
    @hyp.example(_damaged(3, 0, value="1/0"))
    @hyp.example(_damaged(3, 0, value="1e-3"))
    @hyp.example([_gamma_table(3)])
    @hyp.example("k")
    @hyp.example(None)
    def check(table):
        path.write_text(json.dumps(table))
        code = main(["density", "--objective", f"@{path}", "--vector", '{"parts":["1/2"]}',
                     "--quiet"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE and err.startswith("error: ") and "Traceback" not in err, \
            (table, err)

    check()
