import hashlib
import json
import time

import pytest

from ecic import decoder
from ecic.cli import main

from helpers import example1_matrix, pentagon_matrix
from ecic import (
    LinearIndexCode,
    builtin_instance,
    exists_ecic,
    format_matrix,
    index_codes,
    make_field,
    mat_rank,
    parse_matrix,
    verify_ecic_direct,
)


@pytest.fixture()
def pentagon_file(tmp_path):
    p = tmp_path / "pentagon.txt"
    p.write_text(format_matrix(pentagon_matrix()))
    return str(p)


@pytest.fixture()
def example1_file(tmp_path):
    p = tmp_path / "example1.txt"
    p.write_text(format_matrix(example1_matrix()))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_json(capsys):
    code, out, _ = run(capsys, "params", "--instance", "pentagon", "--q", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == 2 and doc["kappa"] == 3
    assert doc["alpha_witness"] == [1, 3]


def test_params_example1(capsys):
    code, out, _ = run(capsys, "params", "--instance", "example1", "--q", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == 1 and doc["kappa"] == 1


@pytest.mark.parametrize(
    "instance, q", [("odd-cycle-complement:4", "2"), ("odd-cycle-complement:3", "3"),
                    ("odd-cycle-complement:5", "2")],
)
def test_params_answers_where_completions_are_many(capsys, instance, q):
    """2^54, 3^28 and 2^88 side-information completions: kappa comes from
    the delta = 0 cover search, which needs none of them."""
    code, out, _ = run(capsys, "params", "--instance", instance, "--q", q)
    assert code == 0
    doc = json.loads(out)
    assert doc["kappa"] == 3
    assert mat_rank(parse_matrix(doc["kappa_witness"])) == 3


@pytest.mark.parametrize(
    "instance, q, optimum", [("odd-cycle-complement:4", "2", 6), ("odd-cycle-complement:3", "3", 5)],
)
def test_search_answers_where_completions_are_many(capsys, instance, q, optimum):
    code, out, _ = run(capsys, "search", "--instance", instance, "--q", q, "--delta", "1")
    assert code == 0
    doc = json.loads(out)
    assert (doc["optimal_length"], doc["infeasible_below"]) == (optimum, optimum - 1)


def test_bounds_json(capsys):
    code, out, _ = run(
        capsys, "bounds", "--instance", "pentagon", "--q", "2", "--delta", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["lower"], doc["upper"], doc["singleton"]) == (8, 10, 7)


def test_bounds_json_stdout_is_pinned(capsys):
    """Every field of the report, in declaration order."""
    code, out, _ = run(
        capsys, "bounds", "--instance", "pentagon", "--q", "2", "--delta", "2", "--format", "json"
    )
    assert code == 0
    assert out == (
        '{\n  "q": 2,\n  "delta": 2,\n  "alpha": 2,\n  "kappa": 3,\n  "alpha_bound": 8,\n'
        '  "kappa_bound": 10,\n  "singleton": 7,\n  "random_coding": 16,\n'
        '  "mds_equality": false,\n  "lower": 8,\n  "upper": 10\n}\n'
    )


def test_verify_pass_and_fail(capsys, pentagon_file, example1_file):
    code, out, _ = run(
        capsys, "verify", "--instance", "pentagon",
        "--matrix", pentagon_file, "--delta", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["radius"] == 2

    code, out, _ = run(
        capsys, "verify", "--instance", "example1",
        "--matrix", example1_file, "--delta", "2",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False and doc["certificate"] == [1, 0, 0]


@pytest.mark.parametrize("command, delta", [("verify", "2"), ("verify", "3"), ("radius", None)])
def test_one_margin_pass_per_call(capsys, monkeypatch, pentagon_file, command, delta):
    real = index_codes._margins_with_minimizers
    passes = []

    def counted(*args):
        passes.append(args)
        return real(*args)

    monkeypatch.setattr(index_codes, "_margins_with_minimizers", counted)
    argv = [command, "--instance", "pentagon", "--matrix", pentagon_file]
    if delta is not None:
        argv += ["--delta", delta]
    code, out, _ = run(capsys, *argv)
    assert len(passes) == 1
    doc = json.loads(out)
    assert doc["radius"] == 2 and doc["margins"] == [5, 5, 5, 5, 5]
    assert code == (1 if delta == "3" else 0)


def test_radius(capsys, example1_file):
    code, out, _ = run(
        capsys, "radius", "--instance", "example1", "--matrix", example1_file
    )
    assert code == 0
    assert json.loads(out)["radius"] == 1


def test_radius_without_receivers_is_the_length(capsys, tmp_path):
    """With no receiver to fail, every cap up to the code length works."""
    inst = tmp_path / "receiverless.json"
    inst.write_text('{"m": 0, "n": 2, "f": [], "X": []}')
    matrix = tmp_path / "m.txt"
    matrix.write_text("2 2 3\n1 0 1\n0 1 1\n")
    code, out, _ = run(capsys, "radius", "--instance", str(inst), "--matrix", str(matrix))
    assert code == 0
    assert json.loads(out) == {"radius": 3, "margins": []}


def test_search_json_and_determinism(capsys):
    args = ("search", "--instance", "example1", "--q", "2", "--delta", "1")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    doc = json.loads(out1)
    assert doc["optimal_length"] == 3
    assert doc["infeasible_below"] == 2
    code, out2, _ = run(capsys, *args)
    assert out1 == out2  # byte-identical for identical configuration


def test_verify_identity_at_delta_zero(capsys, tmp_path):
    p = tmp_path / "identity.txt"
    p.write_text("2 3 3\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, _ = run(
        capsys, "verify", "--instance", "no-side-info:3", "--matrix", str(p),
        "--delta", "0",
    )
    assert code == 0 and json.loads(out)["ok"] is True


def test_search_delta_zero_matches_min_rank(capsys):
    code, out, _ = run(capsys, "search", "--instance", "pentagon", "--q", "2", "--delta", "0")
    assert code == 0
    assert json.loads(out)["optimal_length"] == 3


def test_search_budget_exit(capsys):
    code, _, err = run(
        capsys, "search", "--instance", "pentagon", "--q", "2", "--delta", "2",
        "--node-budget", "3",
    )
    assert code == 3
    assert "budget" in err


def test_cap_exit_is_not_a_budget(capsys):
    code, out, err = run(capsys, "bounds", "--instance", "pentagon", "--q", "8192", "--delta", "1")
    assert code == 3
    assert out == ""
    assert err == "cap exceeded: field order 8192 exceeds cap 256\n"


def test_alpha_vertex_cap_exits_3(capsys):
    code, out, err = run(capsys, "params", "--instance", "no-side-info:25", "--q", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("cap exceeded:")


def test_construct_strategies(capsys):
    for strategy in ("concat", "mds-concat"):
        code, out, _ = run(
            capsys, "construct", "--instance", "pentagon", "--q", "5",
            "--delta", "1", "--strategy", strategy,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["matrix"].startswith("5 5 5")
    code, out, _ = run(
        capsys, "construct", "--instance", "example1", "--q", "2", "--delta", "1",
        "--strategy", "random", "--length", "4", "--trials", "60", "--seed", "3",
    )
    assert code == 0


PENTAGON_Q2_D2 = ("--instance", "pentagon", "--q", "2", "--delta", "2")


def test_construct_exits(capsys):
    """The random strategy needs a length and exits 1 when no trial
    verifies; the concatenation exits 2 when no outer code has the given
    length (N_2[3, 5] = 10)."""
    code, out, err = run(capsys, "construct", *PENTAGON_Q2_D2, "--strategy", "random")
    assert (code, out) == (2, "")
    assert err == "error: --length is required for the random strategy\n"
    argv = ("construct", *PENTAGON_Q2_D2, "--strategy", "random", "--length", "5", "--trials", "3")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"delta": 2, "strategy": "random", "matrix": None}
    code, out, err = run(capsys, "construct", *PENTAGON_Q2_D2, "--strategy", "concat", "--length", "6")
    assert (code, out) == (2, "")
    assert err == "error: no [6, 3, 5] outer code exists\n"


def constructed_code(out, instance):
    """The `construct` JSON document's matrix as a code of the instance."""
    matrix = parse_matrix(json.loads(out)["matrix"])
    return LinearIndexCode(builtin_instance(instance), matrix.field, matrix)


@pytest.mark.parametrize("n, delta, length", [(6, 3, 17), (7, 2, 15)])
def test_concat_takes_the_code_scan_s_generator(capsys, n, delta, length):
    """Without side information kappa = n, so the outer code is N_2[n, 2 *
    delta + 1]: N_2[6, 7] = 17 and N_2[7, 5] = 15, each a tabu witness one
    past a length the residual-code bound rules out.  Both come from the
    scan in well under a second, where a second exhaustive search for a
    generator of the known length took 15 s and more than 2^27 nodes."""
    instance = f"no-side-info:{n}"
    started = time.perf_counter()
    code, out, _ = run(
        capsys, "construct", "--instance", instance, "--q", "2", "--delta", str(delta),
        "--strategy", "concat",
    )
    assert time.perf_counter() - started < 1
    assert code == 0
    ecic_code = constructed_code(out, instance)
    assert (ecic_code.matrix.nrows, ecic_code.matrix.ncols) == (n, length)
    assert verify_ecic_direct(ecic_code, delta).ok


def test_concat_on_a_constructed_length_spends_no_search(capsys, monkeypatch):
    """N_2[4, 7] = 14 is the anticode construction: its generator is the
    outer code, with no kernel call (one used to spend 10,803 nodes)."""
    from ecic import bounds

    def no_search(*args, **kwargs):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(bounds, "multiset_cover_search", no_search)
    code, out, _ = run(
        capsys, "construct", "--instance", "no-side-info:4", "--q", "2", "--delta", "3",
        "--strategy", "concat",
    )
    assert code == 0
    assert constructed_code(out, "no-side-info:4").matrix.ncols == 14


def test_concatenation_bound_in_an_exit_three_bracket_is_a_matrix(capsys):
    """With kappa unsettled, the bracket's upper end concatenates the unit
    columns of pentagon's 5 distinct demands with the upper end of the
    N_2[5, 5] bracket, each identity column 5 times: 25 columns, `bounds`'
    `upper` under 10 nodes and `search`'s `feasible_at` where the
    enumeration budget trips first.  `concatenate_construction` builds that
    matrix and it verifies; under 10 nodes the search's descent goes on to
    a verified witness at 9, inside it."""
    from ecic import FMatrix, concatenate_construction, pentagon, verify_ecic
    from ecic.bounds import _code_length_bracket

    inst, field, need = pentagon(), make_field(2), 5
    demands = sorted(set(inst.demands))
    units = FMatrix(field, tuple(tuple(int(m == j) for j in demands)
                                 for m in range(inst.num_messages)), len(demands))
    upper = _code_length_bracket(2, len(demands), need, 10)[1]
    identity = FMatrix.identity(field, len(demands)).rows
    outer = FMatrix(field, tuple(r * need for r in identity), upper)
    matrix = concatenate_construction(inst, field, 2, units, outer).matrix
    assert verify_ecic(LinearIndexCode(inst, field, matrix), 2).ok
    code, out, _ = run(capsys, "bounds", *PENTAGON_Q2_D2, "--node-budget", "10")
    assert code == 0 and json.loads(out)["upper"] == matrix.ncols == 25
    code, out, _ = run(capsys, "search", *PENTAGON_Q2_D2, "--enum-budget", "3")
    assert code == 3 and json.loads(out)["feasible_at"] == matrix.ncols
    code, out, _ = run(capsys, "search", *PENTAGON_Q2_D2, "--node-budget", "10")
    assert code == 3 and json.loads(out)["feasible_at"] == 9


def test_bounds_and_search_agree_on_the_bracket_under_a_budget(capsys):
    """alpha = kappa = 5 and d = 5: 5,000 nodes do not settle N_2[5, 5]
    (the N = 12 proof alone takes 63,778), so both commands bracket it by
    the Griesmer bound 12 and the repetition of the identity, 25.  The
    search then proves what it can and exits 3 at 12 with a witness at 13."""
    args = ("--instance", "no-side-info:5", "--q", "2", "--delta", "2", "--node-budget", "5000")
    code, out, _ = run(capsys, "bounds", *args)
    assert code == 0
    assert out == (
        '{\n  "q": 2,\n  "delta": 2,\n  "alpha": 5,\n  "kappa": 5,\n  "alpha_bound": null,\n'
        '  "kappa_bound": null,\n  "singleton": 9,\n  "random_coding": 19,\n'
        '  "mds_equality": false,\n  "lower": 12,\n  "upper": 25\n}\n'
    )
    code, out, _ = run(capsys, "search", *args)
    assert code == 3
    assert json.loads(out) == {"status": "budget", "infeasible_below": 12, "feasible_at": 13, "nodes": 5001}


def test_search_brackets_an_instance_of_parts_as_bounds_does(capsys, tmp_path):
    """Three disjoint pentagons: the whole instance's cover table (32,767
    classes) exceeds the enumeration budget, but min-rank takes kappa
    part by part, 3 + 3 + 3, so both commands bracket the optimum by the
    Singleton bound 9 + 2 and N_2[9, 3] = 13 at kappa."""
    demands = list(range(1, 16))
    side = [[5 * (i // 5) + (i + 1) % 5 + 1, 5 * (i // 5) + (i - 1) % 5 + 1] for i in range(15)]
    path = tmp_path / "pentagons.json"
    path.write_text(json.dumps({"m": 15, "n": 15, "f": demands, "X": side}))
    args = ("--instance", str(path), "--q", "2", "--delta", "1")
    code, out, _ = run(capsys, "bounds", *args)
    doc = json.loads(out)
    assert code == 0
    assert (doc["alpha"], doc["kappa"], doc["lower"], doc["upper"]) == (6, 9, 11, 13)
    code, out, err = run(capsys, "search", *args)
    assert code == 3 and "analysing the instance" in err
    assert json.loads(out) == {"status": "budget", "infeasible_below": 11, "feasible_at": 13, "nodes": 0}


def test_bounds_settles_classical_lengths_under_a_budget(capsys):
    """N_2[5, 3] = 9 is the shortened Hamming code and N_11[5, 5] = 9 the
    extended Reed-Solomon code: both spend no node, so 10 nodes settle the
    first (it was bracketed 8..15) and the second, whose table exceeded the
    enumeration budget, is known at all."""
    code, out, _ = run(capsys, "bounds", "--instance", "no-side-info:5", "--q", "2",
                       "--delta", "1", "--node-budget", "10")
    assert code == 0
    doc = json.loads(out)
    assert (doc["alpha_bound"], doc["kappa_bound"], doc["lower"], doc["upper"]) == (9, 9, 9, 9)
    code, out, _ = run(capsys, "bounds", "--instance", "no-side-info:5", "--q", "11", "--delta", "2")
    assert code == 0
    doc = json.loads(out)
    assert (doc["alpha_bound"], doc["kappa_bound"], doc["lower"], doc["upper"]) == (9, 9, 9, 9)


def test_simulate(capsys, example1_file):
    code, out, _ = run(
        capsys, "simulate", "--instance", "example1", "--matrix", example1_file,
        "--delta", "1", "--x", "1 0 1", "--error", "0 1 0 0",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rounds"]) == 3
    assert all(r["success"] for r in doc["rounds"])
    code, out, _ = run(
        capsys, "simulate", "--instance", "example1", "--matrix", example1_file,
        "--delta", "1", "--random-errors", "4", "--seed", "11",
    )
    assert code == 0
    assert len(json.loads(out)["rounds"]) == 12


def test_simulate_builds_each_decoder_once(capsys, monkeypatch, pentagon_file):
    """Every round decodes on the same m decoders, views on one reading of
    the code, and the output is the four-elimination decoder's, byte for
    byte (its sha256 is pinned)."""
    built, readings = [], []
    original = decoder.build_receiver_decoder

    def build(code, i, _reading=None):
        built.append(i)
        readings.append(_reading)
        return original(code, i, _reading=_reading)

    monkeypatch.setattr(decoder, "build_receiver_decoder", build)
    for rounds in ("1", "20"):
        built.clear()
        readings.clear()
        code, out, _ = run(
            capsys, "simulate", "--instance", "pentagon", "--matrix", pentagon_file,
            "--delta", "2", "--random-errors", rounds, "--seed", "7",
        )
        assert code == 0
        assert built == [0, 1, 2, 3, 4]
        assert readings[0] is not None and all(r is readings[0] for r in readings)
    assert len(json.loads(out)["rounds"]) == 100
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5d336b753d616cab786cd66546e0d99fe1b243e5d40b9364ae10f13d23968aed"
    )


def test_params_node_budget(capsys):
    code, out, err = run(
        capsys, "params", "--instance", "pentagon", "--q", "2", "--node-budget", "10"
    )
    # kappa's bracket as data: the probe at alpha = 2 trips, after tabu
    # found a code of length 3
    assert code == 3
    assert json.loads(out) == {
        "status": "budget", "infeasible_below": 2, "feasible_at": 3, "nodes": 11,
    }
    assert err.startswith("budget exhausted")
    code, out, _ = run(
        capsys, "params", "--instance", "pentagon", "--q", "2", "--node-budget", "10",
        "--format", "text",
    )
    assert (code, out) == (3, "kappa in [2, 3]\n")
    code, out, _ = run(
        capsys, "params", "--instance", "pentagon", "--q", "2", "--node-budget", "2000"
    )
    assert code == 0
    assert '"kappa": 3' in out


def test_check_and_simulate_on_a_rank_deficient_code(capsys, tmp_path):
    """The pentagon concat code at delta 1 over GF(2) has rank 3 < 5: its
    decoders reduce by the left kernel, and check and simulate give the
    outputs the per-receiver decoders gave, byte for byte."""
    p = tmp_path / "concat.txt"
    p.write_text("2 5 6\n1 1 0 0 1 0\n1 0 0 1 1 1\n1 0 0 1 1 1\n0 0 1 1 1 0\n0 0 1 1 1 0\n")
    base = ("--instance", "pentagon", "--matrix", str(p))
    code, out, _ = run(capsys, "check", *base, "--delta", "1")
    assert code == 0 and json.loads(out) == {"delta": 1, "ok": True, "decodes": 1120}
    code, out, _ = run(capsys, "check", *base, "--delta", "2")
    doc = json.loads(out)
    ce = doc["counterexample"]
    assert code == 1 and doc["decodes"] == 36
    assert (ce["kind"], ce["receiver"], ce["error"], ce["recovered"]) == (
        "wrong-output", 1, [1, 1, 0, 0, 0, 0], 1
    )
    code, out, _ = run(
        capsys, "simulate", *base, "--delta", "1", "--random-errors", "50", "--seed", "7"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0c8a7aae075728c779be94afe7160efe0fa7c7548dcecc6ca01f45875e7239b8"
    )


def test_check(capsys, example1_file, pentagon_file):
    code, out, _ = run(
        capsys, "check", "--instance", "example1", "--matrix", example1_file,
        "--delta", "1",
    )
    assert code == 0
    assert json.loads(out)["decodes"] == 120
    code, out, _ = run(
        capsys, "check", "--instance", "example1", "--matrix", example1_file,
        "--delta", "2",
    )
    assert code == 1
    assert json.loads(out)["counterexample"]["kind"] == "wrong-output"


@pytest.mark.parametrize("delta", ["0", "1"])
def test_check_on_a_matrix_that_is_not_an_index_code_exits_one(capsys, tmp_path, delta):
    """Receiver 3 demands message 3, whose row is zero: no decoder reads its
    symbol, so the check fails at x = 0 and error 0 after the two decodes
    before it, like `verify` on the same matrix."""
    matrix = tmp_path / "zero-margin.txt"
    matrix.write_text("2 5 5\n1 0 0 0 0\n1 0 0 0 0\n0 0 0 0 0\n0 0 0 1 0\n0 0 0 0 1\n")
    argv = ("--instance", "pentagon", "--matrix", str(matrix), "--delta", delta)
    code, out, _ = run(capsys, "check", *argv)
    assert code == 1
    doc = json.loads(out)
    assert (doc["ok"], doc["decodes"]) == (False, 2)
    assert doc["counterexample"] == {
        "kind": "undetermined-demand", "x": [0] * 5, "error": [0] * 5,
        "receiver": 3, "recovered": None,
    }
    assert run(capsys, "verify", *argv)[0] == 1


def test_simulate_on_a_matrix_that_is_not_an_index_code_exits_one(capsys, tmp_path):
    """The matrix `check` rejects above: simulate names receiver 3, whose
    demanded symbol no decoder reads, instead of failing mid-round; an
    error vector of the wrong length is still an input error."""
    matrix = tmp_path / "zero-margin.txt"
    matrix.write_text("2 5 5\n1 0 0 0 0\n1 0 0 0 0\n0 0 0 0 0\n0 0 0 1 0\n0 0 0 0 1\n")
    argv = ("simulate", "--instance", "pentagon", "--matrix", str(matrix), "--delta", "0")
    code, out, err = run(capsys, *argv, "--random-errors", "2", "--seed", "1")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "rounds": [], "counterexample": {"kind": "undetermined-demand", "receiver": 3},
    }
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == 1 and "receiver 3" in out
    assert run(capsys, *argv, "--error", "0 0 0")[0] == 2  # bad input comes first


def test_validate(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "--instance", "odd-cycle-complement:2")
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 1, "n": 2, "f": [1], "X": [[1]]}')
    code, _, err = run(capsys, "validate", "--instance", str(bad))
    assert code == 2
    assert "holds" in err or "error" in err


def test_validate_with_a_matrix(capsys, pentagon_file):
    code, out, _ = run(capsys, "validate", "--instance", "pentagon", "--matrix", pentagon_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["matrix"] == {"q": 2, "rows": 5, "cols": 9}
    argv = ("validate", "--instance", "pentagon", "--matrix", pentagon_file, "--q", "3")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: --q 3 conflicts with matrix field order 2\n"


def test_negative_matrix_dimensions_exit_two(capsys, tmp_path):
    """A header with a negative column count is malformed, even where no
    row is there to contradict it."""
    inst = tmp_path / "empty.json"
    inst.write_text('{"m": 0, "n": 0, "f": [], "X": []}')
    matrix = tmp_path / "negative.txt"
    matrix.write_text("2 0 -3\n")
    for argv in (("validate",), ("verify", "--delta", "0")):
        code, out, err = run(capsys, *argv, "--instance", str(inst), "--matrix", str(matrix))
        assert code == 2, argv
        assert out == ""
        assert "matrix dimensions must be nonnegative" in err


def test_input_errors_exit_two(capsys, example1_file):
    code, _, _ = run(capsys, "params", "--instance", "no-such-builtin", "--q", "2")
    assert code == 2
    code, _, _ = run(capsys, "params", "--instance", "pentagon", "--q", "6")
    assert code == 2
    code, _, _ = run(
        capsys, "verify", "--instance", "pentagon",
        "--matrix", example1_file, "--delta", "1",
    )
    assert code == 2


def test_q_cross_check(capsys, example1_file):
    code, _, _ = run(
        capsys, "verify", "--instance", "example1", "--matrix", example1_file,
        "--delta", "1", "--q", "3",
    )
    assert code == 2


def test_text_format(capsys, pentagon_file):
    code, out, _ = run(
        capsys, "verify", "--instance", "pentagon", "--matrix", pentagon_file,
        "--delta", "2", "--format", "text",
    )
    assert code == 0
    assert out.startswith("PASS")


def test_verify_fail_reports_every_margin(capsys, pentagon_file):
    code, out, _ = run(
        capsys, "verify", "--instance", "pentagon",
        "--matrix", pentagon_file, "--delta", "3",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["margins"] == [5, 5, 5, 5, 5]
    assert doc["radius"] == 2
    assert doc["certificate"] is not None


def test_negative_delta_exits_two(capsys, pentagon_file):
    matrix = ("--matrix", pentagon_file)
    for argv in (
        ("verify", "--instance", "pentagon", *matrix),
        ("check", "--instance", "pentagon", *matrix),
        ("simulate", "--instance", "pentagon", *matrix),
        ("bounds", "--instance", "pentagon", "--q", "2"),
        ("search", "--instance", "pentagon", "--q", "2"),
        ("construct", "--instance", "pentagon", "--q", "2", "--strategy", "random",
         "--length", "9"),
    ):
        code, out, err = run(capsys, *argv, "--delta", "-1")
        assert code == 2, argv
        assert out == ""
        assert "delta" in err


@pytest.mark.parametrize(
    "argv, word",
    [
        (("--random-errors", "0"), "random-errors"),
        (("--random-errors", "-3"), "random-errors"),
        (("--x", "1 1 1"), "--error"),
        (("--error", "0 1 0 0", "--random-errors", "5"), "random-errors"),
        (("--error", "0 1 0 0", "--random-errors", "1"), "random-errors"),
        (("--x", "1 0 1", "--error", "0 1 0 0", "--seed", "3"), "--seed"),
        (("--x", "1 0 1", "--error", "0 1 0 0", "--seed", "0"), "--seed"),
    ],
)
def test_simulate_rejects_input_it_would_ignore(capsys, example1_file, argv, word):
    code, out, err = run(
        capsys, "simulate", "--instance", "example1", "--matrix", example1_file,
        "--delta", "1", *argv,
    )
    assert code == 2
    assert out == "" and word in err


@pytest.mark.parametrize(
    "argv, same_as",
    [
        ((), ("--seed", "0", "--random-errors", "1")),
        (("--error", "0 1 0 0"), ("--error", "0 1 0 0", "--seed", "0")),
    ],
)
def test_simulate_absent_seed_and_rounds_read_as_0_and_1(capsys, example1_file, argv, same_as):
    common = ("simulate", "--instance", "example1", "--matrix", example1_file, "--delta", "1")
    code, out, _ = run(capsys, *common, *argv)
    assert code == 0
    assert run(capsys, *common, *same_as) == (0, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("params", "--instance", "pentagon", "--q", "2", "--seed", "1"),
        ("validate", "--instance", "pentagon", "--enum-budget", "9"),
        ("search", "--instance", "pentagon", "--q", "2", "--delta", "1", "--seed", "1"),
        ("bounds", "--instance", "pentagon", "--q", "2", "--delta", "1", "--jobs", "2"),
        ("search", "--instance", "pentagon", "--q", "2", "--delta", "1", "--jobs", "2"),
    ],
)
def test_unread_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_random_construct_without_trials_exits_two(capsys, trials):
    code, out, err = run(
        capsys, "construct", "--instance", "example1", "--q", "2", "--delta", "1",
        "--strategy", "random", "--length", "4", "--trials", trials,
    )
    assert code == 2
    assert out == "" and "trials" in err


def test_budgets_at_the_proof_and_witness_costs(capsys):
    """Budgets just below and at the cost of the pentagon q=2 delta=2 N=8
    proof and N=9 witness: one short of the proof exits 3 with the bracket,
    and every budget from the proof's cost on answers.  Local search finds
    the witnesses, so the proof is the scan's only exhaustive call and the
    one place a budget can trip."""
    inst, field = builtin_instance("pentagon"), make_field(2)
    proof = exists_ecic(inst, field, 2, 8).nodes
    witness = exists_ecic(inst, field, 2, 9).nodes
    assert proof < witness - 1
    outcomes = []
    for budget in (proof - 1, proof, witness - 1, witness):
        argv = (
            "search", "--instance", "pentagon", "--q", "2", "--delta", "2",
            "--node-budget", str(budget),
        )
        code, _, err = run(capsys, *argv)
        outcomes.append((code, err))
    assert outcomes == [
        (3, "budget exhausted: budget exhausted at length 8; infeasible below 8, feasible at 9\n"),
        *[(0, "")] * 3,
    ]


def test_budget_exit_prints_the_bracket_as_data(capsys):
    argv = (
        "search", "--instance", "pentagon", "--q", "2", "--delta", "2", "--node-budget", "10",
    )
    code, out, err = run(capsys, *argv)
    assert code == 3 and "feasible at 9" in err
    assert json.loads(out) == {"status": "budget", "infeasible_below": 8, "feasible_at": 9, "nodes": 11}
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == 3 and out == "optimum in [8, 9]\n"
    # an enumeration budget that trips before any search keeps the bounds'
    # bracket; kappa and the code tables need the enumeration too, so the
    # code lengths are bracketed by Griesmer and the repeated identity:
    # N_2[2, 5] by 8..10 at alpha, N_2[5, 5] by 12..25 at the 5 distinct
    # demands
    code, out, _ = run(capsys, *argv[:-2], "--enum-budget", "3")
    assert code == 3
    assert json.loads(out) == {"status": "budget", "infeasible_below": 8, "feasible_at": 25, "nodes": 0}


def test_search_enum_budget_bounds_every_table(capsys):
    """1,000 bytes fit neither no-side-info:6's cover table nor the N_2[6, 5]
    code table behind its alpha and kappa bounds (63 x 63 classes each), so
    the search exits 3 at once with the Griesmer bound 13 and 6 * 5 as its
    bracket; the default budget's answer, 14, is checked from the shell."""
    started = time.perf_counter()
    code, out, _ = run(
        capsys, "search", "--instance", "no-side-info:6", "--q", "2", "--delta", "2",
        "--enum-budget", "1000",
    )
    assert time.perf_counter() - started < 1
    assert code == 3
    assert json.loads(out) == {"status": "budget", "infeasible_below": 13, "feasible_at": 30, "nodes": 0}


def test_construct_enum_budget_bounds_its_tables(capsys):
    """`construct --strategy concat` builds the min-rank table and the
    N_2[6, 5] code table under `--enum-budget`, as `search` does: 1,000
    bytes fit neither, so it exits 3 at once."""
    started = time.perf_counter()
    code, out, err = run(
        capsys, "construct", "--instance", "no-side-info:6", "--q", "2", "--delta", "2",
        "--strategy", "concat", "--enum-budget", "1000",
    )
    assert time.perf_counter() - started < 1
    assert code == 3 and out == ""
    assert "exceed budget 1000" in err


SEARCH_ARGS = ("--instance", "pentagon", "--q", "2", "--delta", "1")
MATRIX_ARGS = ("--instance", "pentagon", "--matrix", "PENTAGON", "--delta", "1")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("params", "--instance", "pentagon", "--q", "2"), "--node-budget"),
        (("bounds", *SEARCH_ARGS), "--node-budget"),
        (("search", *SEARCH_ARGS), "--node-budget"),
        (("search", *SEARCH_ARGS), "--enum-budget"),
        (("construct", *SEARCH_ARGS, "--strategy", "concat"), "--node-budget"),
        (("construct", *SEARCH_ARGS, "--strategy", "concat"), "--enum-budget"),
        (("verify", *MATRIX_ARGS), "--enum-budget"),
        (("radius", *MATRIX_ARGS[:4]), "--enum-budget"),
        (("check", *MATRIX_ARGS), "--enum-budget"),
        (("simulate", *MATRIX_ARGS), "--weight-cap"),
    ],
)
@pytest.mark.parametrize("value", ["-1", "-5", "ten"])
def test_bad_budget_exits_two(capsys, pentagon_file, argv, flag, value):
    argv = [pentagon_file if a == "PENTAGON" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{flag}: must be a nonnegative integer" in err


def test_zero_budgets_stay_valid(capsys):
    """A budget of 0 is accepted and allows no work: the search exits 3
    with its bracket under either budget."""
    code, out, err = run(
        capsys, "search", "--instance", "pentagon", "--q", "2", "--delta", "1",
        "--node-budget", "0",
    )
    assert code == 3 and err.startswith("budget exhausted")
    assert json.loads(out)["status"] == "budget"
    code, out, _ = run(
        capsys, "search", "--instance", "example1", "--q", "2", "--delta", "0",
        "--enum-budget", "0",
    )
    assert code == 3 and json.loads(out)["status"] == "budget"
