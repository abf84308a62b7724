import json

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


def test_cubes_components(capsys):
    code, out = run(capsys, "cubes", "--components", "--n", "1", "--k", "2",
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
    for name, text, why in (
            ("u.json", json.dumps(nonunital), "left unit fails"),
            ("a.json", json.dumps(nonassoc), "associativity fails"),
            ("list.json", "[]", '"structure" and "unit"'),
            ("text.json", "not json", "invalid algebra file")):
        path = tmp_path / name
        path.write_text(text)
        err = _hochschild_error(capsys, "--algebra", str(path))
        assert why in err


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
                                     ' "faces": {"e": [[[0], "zz"]]}}')):
        path = tmp_path / name
        path.write_text(text)
        err = _config_error(capsys, "verify-cochain-ops", "--complex",
                            str(path))
        assert "invalid simplicial set file" in err
    for spec in ("simplex:x", "simplex:\u00b2", "simplex:-1", "simplex:"):
        err = _config_error(capsys, "verify-cochain-ops", "--complex", spec)
        assert "simplex:N" in err
