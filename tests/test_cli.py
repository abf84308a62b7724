import json

import pytest

from chainops.cli import main


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_enumerate_basis(capsys):
    code, out = run(capsys, "--json", "enumerate-basis",
                    "--k", "2", "--q", "1", "--r", "0")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["results"]["count"] == 2


def test_enumerate_basis_complexity(capsys):
    code, out = run(capsys, "enumerate-basis", "--k", "2", "--q", "2",
                    "--r", "0", "--max-complexity", "1")
    assert code == 0 and ": 0" in out


def test_homology_operad_table(capsys):
    code, out = run(capsys, "--json", "homology-operad", "--family", "Tn",
                    "--n", "2", "--k", "2", "--qmax", "4", "--degrees", "0..2")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["results"]["groups"] == {"0": [1, []], "1": [1, []],
                                            "2": [0, []]}
    assert payload["results"]["stabilized"] is True


def test_invalid_n_rejected(capsys):
    code = main(["homology-operad", "--family", "Tn", "--n", "0", "--k", "2"])
    assert code == 2


def test_verify_operad(capsys):
    code, out = run(capsys, "verify-operad", "--family", "Tn", "--n", "1",
                    "--kmax", "2", "--qmax", "3", "--seed", "5",
                    "--exhaustive-cap", "20", "--samples", "10")
    assert code == 0 and "ok" in out


def test_verify_cochain_ops_builtin(capsys):
    code, out = run(capsys, "verify-cochain-ops", "--complex", "circle",
                    "--max-dim", "3")
    assert code == 0 and "FAILURES" not in out


def test_verify_cochain_ops_json_file(tmp_path, capsys):
    from chainops.simplicial import standard_simplex_sset
    path = tmp_path / "w.json"
    path.write_text(standard_simplex_sset(1).to_json())
    code, out = run(capsys, "verify-cochain-ops", "--complex", str(path),
                    "--max-dim", "3")
    assert code == 0


def test_hochschild_cli(capsys):
    code, out = run(capsys, "--json", "hochschild", "--algebra", "dual2",
                    "--pmax", "2", "--report", "gerstenhaber")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["results"]["cohomology"]["0"] == [2, []]
    assert payload["results"]["gerstenhaber"]["passed"] is True


def test_hochschild_pmax_zero(capsys):
    # the sampled bracket check draws degrees below p_max, so --pmax 0
    # used to end in a traceback
    code, out = run(capsys, "--json", "hochschild", "--algebra", "dual2",
                    "--pmax", "0", "--report", "gerstenhaber")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["results"]["cohomology"] == {"0": [2, []]}
    report = payload["results"]["gerstenhaber"]
    assert report["passed"] is True and report["p_max"] == 0
    assert "bracket is compatible with the differential" not in report["items"]


def test_homology_operad_degree_list(capsys):
    code, out = run(capsys, "--json", "homology-operad", "--family", "Tn",
                    "--n", "2", "--k", "2", "--qmax", "4", "--degrees", "0,2")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["results"]["degrees"] == [0, 2]
    assert payload["results"]["groups"] == {"0": [1, []], "2": [0, []]}


def test_homology_operad_not_stabilized_exits_1(capsys, monkeypatch):
    # a failed stabilization certificate is reported, not raised; a stub
    # stands in for a window that has not stabilized
    from chainops import operads

    def unstable(k, n, degrees, level_cap):
        raise operads.NotStabilized(operads.HomologyReport(
            "T2", k, level_cap, tuple(degrees), {0: (1, ()), 1: (2, ())},
            False))
    monkeypatch.setattr(operads, "operad_homology", unstable)
    code, out = run(capsys, "--json", "homology-operad", "--family", "Tn",
                    "--n", "2", "--k", "2", "--qmax", "4", "--degrees", "0..1")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "homology of T2(2), level cap 3 (stabilized: False)"
    payload = json.loads(lines[-1])
    assert payload["passed"] is False
    assert payload["results"]["stabilized"] is False
    assert payload["results"]["groups"] == {"0": [1, []], "1": [2, []]}


def test_cubes_components(capsys):
    code, out = run(capsys, "cubes", "--n", "1", "--k", "2",
                    "--resolution", "5")
    assert code == 0 and ": 2" in out


def test_cubes_compose(tmp_path, capsys):
    spec = {
        "n": 2,
        "outer": [{"a": ["55/100", "55/100"], "b": "40/100"}],
        "inner": [[{"a": ["10/100", "30/100"], "b": "25/100"}]],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "--json", "cubes", "--compose", str(path))
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["results"]["cubes"] == [{"a": ["59/100", "67/100"],
                                            "b": "1/10"}]


def test_export_complex(tmp_path, capsys):
    path = tmp_path / "t2.json"
    code, out = run(capsys, "export-complex", "--k", "2", "--qmax", "3",
                    "--out", str(path))
    assert code == 0
    obj = json.loads(path.read_text())
    assert "basis" in obj and "differential" in obj


def test_reports_deterministic(capsys):
    args = ["--json", "verify-operad", "--family", "T", "--kmax", "2",
            "--qmax", "3", "--seed", "9", "--exhaustive-cap", "15",
            "--samples", "10"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_invalid_max_complexity_named(capsys):
    code = main(["enumerate-basis", "--k", "2", "--q", "1", "--r", "0",
                 "--max-complexity", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--max-complexity" in err and "--n " not in err


def _hochschild_error(capsys, *args):
    code = main(["hochschild", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    return captured.err


def test_hochschild_invalid_algebra_file(tmp_path, capsys):
    # not unital: (0, 1) is not a unit of Z/2[x]/(x^2)
    nonunital = {"ring": "Zp", "p": 2, "unit": [0, 1],
                 "structure": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]}
    # not associative: (e1 e1) e1 != e1 (e1 e1)
    e0, e1, e2, z = [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]
    nonassoc = {"ring": "Zp", "p": 2, "unit": [1, 0, 0],
                "structure": [[e0, e1, e2], [e1, e2, z], [e2, e1, z]]}
    # 1.5 was read as 1: over Z the run gave the cohomology of Z, over Z/2
    # it was refused only as a failed unit law
    half = {"structure": [[[1.5]]], "unit": [1]}
    for name, text, why in (
            ("u.json", json.dumps(nonunital), "left unit fails"),
            ("a.json", json.dumps(nonassoc), "associativity fails"),
            ("h.json", json.dumps(dict(half, ring="Z")),
             "non-integral entry 1.5"),
            ("h2.json", json.dumps(dict(half, ring="Zp", p=2)),
             "non-integral entry 1.5"),
            ("list.json", "[]", '"structure" and "unit"'),
            ("text.json", "not json", "invalid algebra file")):
        path = tmp_path / name
        path.write_text(text)
        err = _hochschild_error(capsys, "--algebra", str(path))
        assert why in err


def test_hochschild_algebra_over_the_wrong_ring(tmp_path, capsys):
    # Z/4 is no field, "Q" is no ring the library computes over, and "Zp"
    # without a prime "p" names no field at all
    dual = {"unit": [1, 0], "structure": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]}
    for name, ring, why in (
            ("z4.json", {"ring": "Zp", "p": 4}, "0 or a prime, not 4"),
            ("z6.json", {"ring": "Zp", "p": 6}, "0 or a prime, not 6"),
            ("q.json", {"ring": "Q"}, 'the ring is "Z", or "Zp" with a'),
            ("nop.json", {"ring": "Zp"}, 'the ring is "Z", or "Zp" with a'),
            ("p0.json", {"ring": "Zp", "p": 0}, 'the ring is "Z", or "Zp"')):
        path = tmp_path / name
        path.write_text(json.dumps(dict(dual, **ring)))
        for report in ((), ("--report", "gerstenhaber")):
            err = _hochschild_error(capsys, "--algebra", str(path),
                                    "--pmax", "2", *report)
            assert why in err


def test_hochschild_zero_ring_report(tmp_path, capsys):
    # rank 0: every cochain space is zero, so no bracket can be drawn
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"ring": "Z", "p": 0, "rank": 0,
                                "structure": [], "unit": []}))
    code, out = run(capsys, "hochschild", "--algebra", str(path),
                    "--pmax", "2", "--report", "gerstenhaber")
    assert code == 0
    assert "H^2: rank 0" in out


def test_hochschild_negative_pmax(capsys):
    err = _hochschild_error(capsys, "--algebra", "dual2", "--pmax", "-1")
    assert "--pmax" in err


def test_hochschild_pmax_above_size_guard(capsys):
    err = _hochschild_error(capsys, "--algebra", "m2", "--pmax", "5")
    assert "--pmax 5 is too large" in err


def test_hochschild_missing_algebra_file(tmp_path, capsys):
    err = _hochschild_error(capsys, "--algebra", str(tmp_path / "none.json"))
    assert "cannot read algebra file" in err


def _config_error(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    return captured.err


def test_empty_degree_window_rejected(capsys):
    err = _config_error(capsys, "homology-operad", "--k", "2",
                        "--degrees", "2..0")
    assert "empty degree window '2..0'" in err


def test_nonpositive_kmax_rejected(capsys):
    err = _config_error(capsys, "verify-operad", "--kmax", "0")
    assert "--kmax must be positive" in err


def test_bad_simplicial_set_file_rejected(tmp_path, capsys):
    err = _config_error(capsys, "verify-cochain-ops", "--complex",
                        str(tmp_path / "none.json"))
    assert "cannot read simplicial set file" in err
    for name, text in (("text.json", "not json"), ("list.json", "[]"),
                       ("empty.json", "{}"),
                       ("face.json", '{"simplices": {"0": ["a"], "1": ["e"]},'
                                     ' "faces": {"e": [[[0], "zz"]]}}'),
                       # once a run that checked 0 instances
                       ("negative.json", '{"simplices": {"-1": ["v"]}}'),
                       # once read as the two vertices a and b
                       ("string.json", '{"simplices": {"0": "ab"}}')):
        path = tmp_path / name
        path.write_text(text)
        err = _config_error(capsys, "verify-cochain-ops", "--complex",
                            str(path))
        assert "invalid simplicial set file" in err
    edge = {"e": [[[], "v"], [[], "v"]]}
    for name, obj in (
            # once a run with 64 naturality failures: s_0 s_0 is no word
            ("unnormal.json", {"simplices": {"0": ["v"], "1": ["e"],
                                             "3": ["T"]},
                               "faces": dict(edge, T=[[[0, 0], "v"]] * 4)}),
            # once refused as "no face d_0 of the 0-cell": s_1 of a vertex
            ("outside.json", {"simplices": {"0": ["v"], "1": ["e"],
                                            "2": ["t"]},
                              "faces": dict(edge, t=[[[1], "v"], [[0], "v"],
                                                     [[0], "v"]])})):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        err = _config_error(capsys, "verify-cochain-ops", "--complex",
                            str(path))
        assert "invalid simplicial set file" in err
        assert "is not in normal form" in err
    for spec in ("simplex:x", "simplex:\u00b2", "simplex:-1", "simplex:"):
        err = _config_error(capsys, "verify-cochain-ops", "--complex", spec)
        assert "simplex:N" in err


# Each input used to end in a traceback or in a run that checked nothing.
BAD_INPUT = [
    (["enumerate-basis", "--k", "0", "--q", "1", "--r", "0"],
     "--k must be positive"),
    (["cubes", "--k", "0"], "--k must be positive"),
    (["enumerate-basis", "--k", "2", "--q", "-1", "--r", "0"],
     "--q must be non-negative"),
    (["verify-cochain-ops", "--complex", "simplex:1", "--max-dim", "-3"],
     "--max-dim must be non-negative"),
    # refused before Delta^N is built: an OverflowError, a run past 60 s,
    # and 8191 simplices built for a run that reads level 0 only
    (["verify-cochain-ops", "--complex", "simplex:99999999999999999999"],
     "simplex:99999999999999999999 is too large"),
    (["verify-cochain-ops", "--complex", "simplex:6"],
     "simplex:6 is too large: more than 2000 cells on levels 0..8"),
    (["verify-cochain-ops", "--complex", "simplex:12", "--max-dim", "0"],
     "simplex:12 is too large: more than 2000 cells on levels 0..12"),
    (["verify-cochain-ops", "--complex", "{tmp}/short.json"],
     "'e' has dimension 1, so it needs 2 faces, got 1"),
    (["cubes", "--compose", "/nonexistent.json"],
     "cannot read compose file '/nonexistent.json'"),
    (["cubes", "--compose", "{tmp}/overlap.json"],
     "DisjointnessViolation((0, 1))"),
    (["cubes", "--compose", "{tmp}/huge.json"], "OverflowError("),
    (["cubes", "--compose", "{tmp}/string.json"],
     "TypeError('a must be a list')"),
    (["cubes", "--compose", "{tmp}/n0.json"], "InvalidCube(('dimension', 0))"),
    (["cubes", "--compose", "{tmp}/n-1.json"],
     "InvalidCube(('dimension', -1))"),
    (["cubes", "--n", "1", "--k", "3", "--resolution", "2"],
     "--resolution 2 is too coarse"),
    (["cubes", "--n", "3", "--k", "2", "--resolution", "4"],
     "too many samples to count"),
    (["export-complex", "--k", "5", "--qmax", "2"],
     "--qmax 2 leaves arity 5 without symbols"),
    (["verify-operad", "--kmax", "3", "--qmax", "1"],
     "--qmax 1 leaves arity 3 without symbols"),
    (["verify-operad", "--exhaustive-cap", "-1"],
     "--exhaustive-cap must be non-negative"),
    (["verify-operad", "--samples", "-5"], "--samples must be non-negative"),
    (["export-complex", "--k", "2", "--qmax", "2", "--out",
      "{tmp}/missing/t2.json"], "cannot write --out file"),
    (["homology-operad", "--family", "T", "--n", "3", "--k", "2"],
     "--n applies only to --family Tn"),
    (["verify-operad", "--n", "2", "--kmax", "2", "--qmax", "2"],
     "--n applies only to --family Tn"),
    (["export-complex", "--n", "2", "--k", "2", "--qmax", "2"],
     "--n applies only to --family Tn"),
]


@pytest.mark.parametrize("args,message", BAD_INPUT,
                         ids=[" ".join(a) for a, _ in BAD_INPUT])
def test_bad_input_exits_2(tmp_path, capsys, args, message):
    (tmp_path / "short.json").write_text(
        '{"simplices": {"0": ["a"], "1": ["e"]}, "faces": {"e": [[[], "a"]]}}')
    (tmp_path / "overlap.json").write_text(json.dumps({
        "n": 2, "inner": [[], []],
        "outer": [{"a": ["0", "0"], "b": "1/2"},
                  {"a": ["1/4", "1/4"], "b": "1/2"}]}))
    # b is the float infinity
    (tmp_path / "huge.json").write_text(
        '{"n": 1, "outer": [{"a": [0], "b": 1e400}], "inner": [[]]}')
    # once read as a = (0, 0)
    (tmp_path / "string.json").write_text(json.dumps({
        "n": 2, "outer": [{"a": "00", "b": "1/2"}], "inner": [[]]}))
    # once "composite of 0 cubes"
    for n in (0, -1):
        (tmp_path / ("n%d.json" % n)).write_text(json.dumps({
            "n": n, "outer": [], "inner": []}))
    err = _config_error(capsys, *[a.replace("{tmp}", str(tmp_path))
                                  for a in args])
    assert message in err


# Full --json lines recorded before the command-line layer was rewritten
# (with the echo of the removed --threads option taken out); the seeded
# verify-operad line was re-pinned when the axiom sampler began drawing its
# tuples inside the q window.
GOLDEN = [
    (["homology-operad", "--family", "Tn", "--n", "2", "--k", "2",
      "--qmax", "4", "--degrees", "0..2"],
     '{"command": "homology-operad", "config": {"family": "Tn", "k": 2, '
     '"n": 2, "qmax": 4, "seed": 0}, "passed": true, "results": {"degrees": '
     '[0, 1, 2], "family": "T2", "groups": {"0": [1, []], "1": [1, []], '
     '"2": [0, []]}, "k": 2, "level_cap": 3, "stabilized": true}}'),
    (["verify-operad", "--family", "Tn", "--n", "1", "--kmax", "2",
      "--qmax", "3", "--seed", "5", "--exhaustive-cap", "20",
      "--samples", "10"],
     '{"command": "verify-operad", "config": {"exhaustive_cap": 20, '
     '"family": "Tn", "k_max": 2, "n": 1, "qmax": 3, "samples": 10, '
     '"seed": 5}, "passed": true, "results": {"family": "T1", "items": '
     '{"associativity (composition diagram)": {"failures": [], "instances": '
     '10}, "degree additivity": {"failures": [], "instances": 30}, '
     '"equivariance (inner permutations)": {"failures": [], "instances": '
     '30}, "equivariance (outer permutation)": {"failures": [], '
     '"instances": 23}, "gamma is a chain map": {"failures": [], '
     '"instances": 30}, "substitution gamma equals matrix gamma": '
     '{"failures": [], "instances": 30}, "unit laws": {"failures": [], '
     '"instances": 112}}, "passed": true, "q_cap": 3, "seed": 5}}'),
    (["enumerate-basis", "--k", "2", "--q", "2", "--r", "1",
      "--max-complexity", "1"],
     '{"command": "enumerate-basis", "config": {"k": 2, "n": 1, "q": 2, '
     '"r": 1, "seed": 0}, "passed": true, "results": {"count": 4, '
     '"symbols": [{"f": [1, 1, 2], "k": 2, "phi": [0, 1, 1]}, {"f": [1, 2, '
     '2], "k": 2, "phi": [0, 0, 1]}, {"f": [2, 1, 1], "k": 2, "phi": [0, 0, '
     '1]}, {"f": [2, 2, 1], "k": 2, "phi": [0, 1, 1]}]}}'),
    (["verify-cochain-ops", "--complex", "simplex:1", "--max-dim", "2"],
     '{"command": "verify-cochain-ops", "config": {"complex": "simplex:1", '
     '"max_dim": 2, "seed": 0}, "passed": true, "results": {"complex": '
     '"simplex:1", "items": {"3-ary operations decompose through 2-ary": '
     '{"failures": [], "instances": 117}, "associativity of fiberwise '
     'operations (k=3)": {"failures": [], "instances": 117}, "augmentation '
     'units": {"failures": [], "instances": 6}, "codegeneracies of a cup '
     'product": {"failures": [], "instances": 4}, "codegeneracies of a join '
     'product": {"failures": [], "instances": 0}, "cofaces of a cup '
     'product": {"failures": [], "instances": 12}, "cofaces of a join '
     'product": {"failures": [], "instances": 16}, "cup from join": '
     '{"failures": [], "instances": 8}, "join from cup": {"failures": [], '
     '"instances": 8}, "join is the block-partition operation": '
     '{"failures": [], "instances": 4}, "join unit": {"failures": [], '
     '"instances": 3}, "naturality of fiberwise operations (k=2)": '
     '{"failures": [], "instances": 255}, "shared middle coface": '
     '{"failures": [], "instances": 8}, "symmetry of fiberwise operations": '
     '{"failures": [], "instances": 26}}, "level_cap": 2, "passed": true}}'),
    (["hochschild", "--algebra", "dual2", "--pmax", "2", "--report",
      "gerstenhaber"],
     '{"command": "hochschild", "config": {"algebra": "Z2[x]/(x^2)", '
     '"p_max": 2, "seed": 0}, "passed": true, "results": {"cohomology": '
     '{"0": [2, []], "1": [2, []], "2": [2, []]}, "gerstenhaber": '
     '{"algebra": "Z2[x]/(x^2)", "certificates": 196, "items": {"Leibniz '
     'rule for cup": {"failures": 0, "instances": 68}, "bracket Jacobi": '
     '{"failures": 0, "instances": 80}, "bracket antisymmetry": '
     '{"failures": 0, "instances": 32}, "bracket derivation over cup": '
     '{"failures": 0, "instances": 80}, "bracket is compatible with the '
     'differential": {"failures": 0, "instances": 28}, "bracket of cocycles '
     'is a cocycle": {"failures": 0, "instances": 32}, "cup associativity": '
     '{"failures": 0, "instances": 216}, "cup unit": {"failures": 0, '
     '"instances": 14}, "differential squares to zero": {"failures": 0, '
     '"instances": 14}, "graded commutativity on cohomology": {"failures": '
     '0, "instances": 36}}, "p_max": 2, "passed": true}}}'),
    (["cubes", "--n", "1", "--k", "2", "--resolution", "5"],
     '{"command": "cubes", "config": {"k": 2, "n": 1, "resolution": 5, '
     '"seed": 0}, "passed": true, "results": {"components": 2}}'),
    (["cubes", "--compose", "{compose}"],
     '{"command": "cubes", "config": {"seed": 0}, "passed": true, '
     '"results": {"cubes": [{"a": ["59/100", "67/100"], "b": "1/10"}]}}'),
    (["export-complex", "--k", "2", "--qmax", "2"],
     '{"command": "export-complex", "config": {"family": "T", "k": 2, '
     '"qmax": 2, "seed": 0}, "passed": true, "results": {"ranks": {"-1": '
     '18, "-2": 8, "0": 12, "1": 2}}}'),
]


@pytest.mark.parametrize("args,expected", GOLDEN,
                         ids=[" ".join(a[:2]) for a, _ in GOLDEN])
def test_json_report_golden(tmp_path, capsys, args, expected):
    compose = tmp_path / "c.json"
    compose.write_text(json.dumps({
        "n": 2,
        "outer": [{"a": ["55/100", "55/100"], "b": "40/100"}],
        "inner": [[{"a": ["10/100", "30/100"], "b": "25/100"}]],
    }))
    args = [a.replace("{compose}", str(compose)) for a in args]
    code, out = run(capsys, "--json", *args)
    assert code == 0
    assert out.splitlines()[-1] == expected


def test_json_report_golden_integral_torsion(tmp_path, capsys):
    # Z[x]/(x^3) over the integers: HH^2 = Z^2 + Z/3, recorded before the
    # elimination engines were merged into one
    algebra = tmp_path / "zx3.json"
    algebra.write_text(json.dumps({
        "ring": "Z", "p": 0, "rank": 3, "unit": [1, 0, 0],
        "structure": [[[1 if t == i + j else 0 for t in range(3)]
                       for j in range(3)] for i in range(3)]}))
    code, out = run(capsys, "--json", "hochschild", "--algebra", str(algebra),
                    "--pmax", "3", "--report", "gerstenhaber")
    assert code == 0
    assert out.splitlines()[-1] == (
        '{"command": "hochschild", "config": {"algebra": "R", "p_max": 3, '
        '"seed": 0}, "passed": true, "results": {"cohomology": {"0": [3, []], '
        '"1": [2, []], "2": [2, [3]], "3": [2, []]}, "gerstenhaber": '
        '{"algebra": "R", "certificates": 1, "items": {"Leibniz rule for cup": '
        '{"failures": 0, "instances": 792}, "bracket is compatible with the '
        'differential": {"failures": 0, "instances": 32}, "cup associativity": '
        '{"failures": 0, "instances": 1728}, "cup unit": {"failures": 0, '
        '"instances": 120}, "differential squares to zero": {"failures": 0, '
        '"instances": 120}, "graded commutativity on cohomology": '
        '{"failures": 0, "instances": 1}}, "p_max": 3, "passed": true}}}')


def test_oversized_family_t_window_exits_2(capsys, monkeypatch):
    # the refusal comes from the closed-form count, before any symbol is
    # enumerated; a small limit stands in for a window too large to build
    from chainops import operads

    def never(*args):
        raise AssertionError("enumerated an oversized window")
    monkeypatch.setattr(operads, "MAX_WINDOW_SYMBOLS", 1000)
    monkeypatch.setattr(operads, "level_truncated_complex", never)
    err = _config_error(capsys, "homology-operad", "--k", "2", "--qmax", "5")
    assert ("--k 2 --qmax 5 is too large: the level-5 window of T(2) has "
            "29492 symbols, above the limit 1000") in err


def test_oversized_verify_window_exits_2(capsys, monkeypatch):
    # the family-T pool of verify-operad is counted in closed form and
    # refused before _symbol_pools enumerates it; a Tn window is not
    # counted, so it reaches the pools
    from chainops import operads

    def never(*args):
        raise AssertionError("enumerated an oversized window")
    monkeypatch.setattr(operads, "_symbol_pools", never)
    err = _config_error(capsys, "verify-operad", "--kmax", "4", "--qmax", "8")
    assert ("--kmax 4 --qmax 8 is too large: the q <= 8 window of T through "
            "arity 4 has 45173170 symbols, above the limit 400000") in err
    with pytest.raises(AssertionError, match="enumerated"):
        main(["verify-operad", "--family", "Tn", "--n", "1", "--kmax", "4",
              "--qmax", "8"])


def test_oversized_export_window_exits_2(capsys, monkeypatch):
    # export-complex counts its family-T window in closed form and refuses
    # it before symbol_complex enumerates a single cell
    from chainops import operads

    def never(*args):
        raise AssertionError("enumerated an oversized window")
    monkeypatch.setattr(operads, "enumerate_symbols", never)
    err = _config_error(capsys, "export-complex", "--k", "3", "--qmax", "10")
    assert ("--k 3 --qmax 10 is too large: the q <= 10 window of T(3) has "
            "72179376 symbols, above the limit 400000") in err


def test_oversized_enumeration_exits_2(capsys, monkeypatch):
    # without a complexity bound the closed-form count is exact, and a shape
    # above the limit is refused before any symbol is enumerated; with a
    # bound the count is only an upper bound, and nothing is refused
    from chainops import operads
    err = _config_error(capsys, "enumerate-basis", "--k", "40", "--q", "60",
                        "--r", "30")
    assert "--k 40 --q 60 --r 30 is too large" in err
    assert "above the limit 400000" in err
    monkeypatch.setattr(operads, "MAX_WINDOW_SYMBOLS", 9)
    err = _config_error(capsys, "enumerate-basis", "--k", "2", "--q", "2",
                        "--r", "1")
    assert "--k 2 --q 2 --r 1 is too large: 10 symbols, above the limit 9" \
        in err
    monkeypatch.setattr(operads, "MAX_WINDOW_SYMBOLS", 10)
    assert run(capsys, "enumerate-basis", "--k", "2", "--q", "2",
               "--r", "1")[0] == 0
    monkeypatch.setattr(operads, "MAX_WINDOW_SYMBOLS", 0)
    assert run(capsys, "enumerate-basis", "--k", "2", "--q", "2", "--r", "1",
               "--max-complexity", "1")[0] == 0
