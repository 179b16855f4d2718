import json
import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import catcavity
from catcavity import (ValidityWarning, cli, default_truncation, oracle,
                       validation)
from catcavity.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


def test_figure_requires_nb(tmp_path, capsys):
    code = main(["figure", "fig1", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "nb" in err


def test_fig1_writes_coherent_and_cat_csv(tmp_path):
    code = main([
        "figure", "fig1", "--nb", "0.1", "--gt-max", "5", "--gt-step", "0.5",
        "--out", str(tmp_path),
    ])
    assert code == 0
    for tag in ("coherent", "cat"):
        path = tmp_path / f"fig1_{tag}.csv"
        meta, header, rows = _read_csv(path)
        assert header == ["gt", "P_plus", "P_plusplus"]
        assert "nb=0.1" in meta
        assert "preset=benson97" in meta
        assert len(rows) == 11
        first = [float(v) for v in rows[0]]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(1.0, abs=1e-9)


def test_fig2_uses_brune_preset(tmp_path):
    code = main([
        "figure", "fig2", "--nb", "0.1", "--gt-max", "3", "--gt-step", "1",
        "--out", str(tmp_path),
    ])
    assert code == 0
    meta, _, rows = _read_csv(tmp_path / "fig2_cat.csv")
    assert "preset=brune96" in meta
    assert "nbar=3.3" in meta
    assert len(rows) == 4


def test_fig3_emits_empty_cell_for_undefined_eta(tmp_path):
    code = main([
        "figure", "fig3", "--nb", "0.1", "--gt-max", "2", "--gt-step", "1",
        "--out", str(tmp_path),
    ])
    assert code == 0
    for preset in ("benson97", "brune96"):
        _, header, rows = _read_csv(tmp_path / f"fig3_{preset}.csv")
        assert header == ["gt", "eta_coherent", "eta_cat"]
        # eta is undefined at t = 0 (no ground-state population yet)
        assert rows[0][1] == ""
        assert rows[0][2] == ""
        assert rows[-1][1] != ""


def test_fig3_gt_max_applies_to_every_preset(tmp_path):
    code = main(["figure", "fig3", "--nb", "0.1", "--gt-max", "2",
                 "--gt-step", "1", "--out", str(tmp_path)])
    assert code == 0
    for preset in ("benson97", "brune96"):
        meta, _, rows = _read_csv(tmp_path / f"fig3_{preset}.csv")
        assert "gt_max=2" in meta
        assert len(rows) == 3


def test_fig3_preset_writes_only_that_preset(tmp_path):
    code = main(["figure", "fig3", "--nb", "0.1", "--preset", "brune96",
                 "--gt-step", "5", "--out", str(tmp_path)])
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig3_brune96.csv"]
    meta, _, rows = _read_csv(tmp_path / "fig3_brune96.csv")
    assert "nbar=3.3" in meta and "gt_max=25" in meta
    assert len(rows) == 6


def test_nbar_flag_keeps_each_preset_window(tmp_path):
    code = main(["figure", "fig3", "--nb", "0.1", "--nbar", "4",
                 "--gt-step", "5", "--out", str(tmp_path)])
    assert code == 0
    for preset, rows_expected in (("benson97", 11), ("brune96", 6)):
        meta, _, rows = _read_csv(tmp_path / f"fig3_{preset}.csv")
        assert "nbar=4" in meta
        assert len(rows) == rows_expected


def test_csv_output_is_deterministic(tmp_path):
    args = ["figure", "fig1", "--nb", "0.1", "--gt-max", "2", "--gt-step", "0.5"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    for tag in ("coherent", "cat"):
        a = (tmp_path / "a" / f"fig1_{tag}.csv").read_bytes()
        b = (tmp_path / "b" / f"fig1_{tag}.csv").read_bytes()
        assert a == b


def test_si_times_flag_changes_axis(tmp_path):
    main(["figure", "fig1", "--nb", "0", "--gt-max", "2", "--gt-step", "1",
          "--si-times", "--out", str(tmp_path)])
    _, header, rows = _read_csv(tmp_path / "fig1_cat.csv")
    assert header[0] == "t"
    assert float(rows[1][0]) == pytest.approx(1.0 / 36000.0)


def test_config_file_supplies_nb_and_cli_overrides(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[fig1]\nnb = 0.1\ngt_max = 2\ngt_step = 1\nnbar = 9\n")
    code = main(["figure", "fig1", "--config", str(cfg), "--nbar", "4",
                 "--out", str(tmp_path)])
    assert code == 0
    meta, _, _ = _read_csv(tmp_path / "fig1_cat.csv")
    assert "nbar=4" in meta  # CLI flag beats the config file
    assert "nb=0.1" in meta


def test_figure_header_records_every_setting(tmp_path):
    assert main(["figure", "fig1", "--nb", "0.1", "--gt-max", "2",
                 "--gt-step", "0.5", "--out", str(tmp_path)]) == 0
    meta, _, _ = _read_csv(tmp_path / "fig1_coherent.csv")
    assert meta == ("# figure=fig1 preset=benson97 kappa=8.33 g=36000 "
                    "nbar=49 phi=0 nb=0.1 gt_max=2 gt_step=0.5 "
                    f"version={cli.VERSION} field=coherent")
    assert main(["figure", "fig3", "--preset", "brune96", "--nb", "0",
                 "--gt-max", "1", "--out", str(tmp_path)]) == 0
    meta, _, _ = _read_csv(tmp_path / "fig3_brune96.csv")
    assert meta == ("# figure=fig3 preset=brune96 kappa=2500 g=24000 "
                    "nbar=3.3 phi=0 nb=0 gt_max=1 gt_step=0.1 "
                    f"version={cli.VERSION}")


def test_config_file_run_writes_the_same_files_as_flags(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[fig1]\nnb = 0.1\ngt_max = 2\ngt_step = 0.5\n")
    assert main(["figure", "fig1", "--config", str(cfg),
                 "--out", str(tmp_path / "config")]) == 0
    assert main(["figure", "fig1", "--nb", "0.1", "--gt-max", "2",
                 "--gt-step", "0.5", "--out", str(tmp_path / "flags")]) == 0
    for tag in ("coherent", "cat"):
        name = f"fig1_{tag}.csv"
        assert ((tmp_path / "config" / name).read_bytes()
                == (tmp_path / "flags" / name).read_bytes())


def test_config_file_unknown_preset_is_a_configuration_error(tmp_path,
                                                             capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[fig1]\nnb = 0.1\npreset = nosuch\n")
    code = main(["figure", "fig1", "--config", str(cfg),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "unknown preset 'nosuch'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_validate_fast_passes(capsys):
    code = main(["validate", "--level", "fast"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_validate_emits_no_validity_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", ValidityWarning)
        assert main(["validate"]) == 0


def test_validate_reports_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(
        validation, "check_joint_collapse",
        lambda: validation.CheckResult("joint-collapse", False, "forced"))
    code = main(["validate"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] joint-collapse: forced" in out


def test_oracle_dump(tmp_path):
    code = main(["oracle", "--nbar", "1", "--nb", "0.1", "--t-max", "0.002",
                 "--samples", "3", "--out", str(tmp_path)])
    assert code == 0
    meta, header, rows = _read_csv(tmp_path / "oracle.csv")
    assert header == ["t", "observable", "value"]
    names = {row[1] for row in rows}
    assert "p_plus" in names
    assert "f_ground" in names
    p0 = [float(r[2]) for r in rows if r[0] == "0" and r[1] == "p_plus"]
    assert p0 and p0[0] == pytest.approx(1.0, abs=1e-8)
    assert meta == ("# preset=benson97 kappa=8.33 g=36000 nbar=1 phi=0 "
                    f"nb=0.1 t_max=0.002 samples=3 version={cli.VERSION}")


def test_oracle_logs_truncation_and_k0_block(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="catcavity")
    code = main(["oracle", "--nbar", "1", "--nb", "0.1", "--t-max", "0.002",
                 "--samples", "3", "--out", str(tmp_path)])
    assert code == 0
    trunc = default_truncation(1.0)
    records = [r.getMessage() for r in caplog.records
               if r.name == "catcavity"]
    # one propagated block: k = 0, with 4 N + 2 states, and one expm for
    # the two equal steps, on the 3 N + 2 real parts of its Hermitian
    # closure (the cat's k = 0 part is real)
    assert records == [f"oracle: truncation {trunc}, propagated block "
                       f"sizes [{4 * trunc + 2}], expm builds 1 of sizes "
                       f"[{3 * trunc + 2}]"]


def test_oracle_requires_nb(capsys):
    code = main(["oracle", "--nbar", "1", "--t-max", "0.001"])
    assert code == 2
    assert "nb" in capsys.readouterr().err


#: (argv, the start of the refusal on stderr): each number is refused with
#: the text of the library's own rule for it.
MALFORMED = [
    (["figure", "fig1", "--nb", "0.1", "--gt-step", "0"],
     "gt_step must be a finite number above 0, got 0.0"),
    (["figure", "fig1", "--nb", "0.1", "--gt-step", "-1"],
     "gt_step must be a finite number above 0, got -1.0"),
    (["figure", "fig2", "--nb", "0.1", "--nbar", "-1"],
     "nbar must be a finite number above 0, got -1.0"),
    (["figure", "fig2", "--nb", "0.1", "--phi", "inf"],
     "phi must be a finite number, got inf"),
    (["figure", "fig2", "--config", "bad.ini"], "gt_step = '0.1.2' in "),
    (["oracle", "--nb", "0.1", "--samples", "0"],
     "samples must be 1 or a larger integer, got 0"),
    (["oracle", "--nb", "0.1", "--t-max", "-1"],
     "t_max must be finite and non-negative"),
    (["oracle", "--nb", "-0.1"], "nb must be finite and non-negative"),
    (["oracle", "--nb", "nan"], "nb must be finite and non-negative"),
    (["figure", "fig2", "--nb", "0.1", "--nbar", "1e-9",
      "--phi", "3.141592653589793"], "the cat at intensity 1e-09 and phase "),
    (["oracle", "--nb", "0.1", "--nbar", "1e-9", "--phi", "3.141592653589793"],
     "the cat at intensity 1e-09 and phase "),
]


@pytest.mark.parametrize("argv, refusal", MALFORMED,
                         ids=[f"argv{i}" for i in range(len(MALFORMED))])
def test_malformed_number_is_an_input_error(tmp_path, capsys, argv, refusal):
    (tmp_path / "bad.ini").write_text("[fig2]\nnb = 0.1\ngt_step = 0.1.2\n")
    argv = [str(tmp_path / a) if a == "bad.ini" else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {refusal}")
    assert not (tmp_path / "out").exists()


def test_unknown_config_key_is_an_input_error(tmp_path, capsys):
    config = tmp_path / "c.ini"
    config.write_text("[fig1]\nnb = 0.1\ngt-step = 5\nnbarr = 4\n")
    out = tmp_path / "out"
    assert main(["figure", "fig1", "--config", str(config),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown key(s) gt-step, nbarr in [fig1]")
    assert "accepted keys: preset, out, nbar, phi, nb, gt_max, gt_step" in err
    assert not out.exists()


#: Modules that only the master-equation oracle needs.
ORACLE_ONLY = ("catcavity.oracle", "scipy.integrate", "scipy.linalg",
               "scipy.sparse")


def _loaded_in_fresh_interpreter(*stages):
    """The modules of ORACLE_ONLY that a new interpreter holds after each of
    `stages`, lines of code run one after another."""
    report = (f"print('loaded', json.dumps([m for m in {ORACLE_ONLY!r} "
              "if m in sys.modules]))")
    script = "\n".join(["import json, sys, tempfile"]
                       + [f"{stage}\n{report}" for stage in stages])
    env = dict(os.environ,
               PYTHONPATH=str(Path(catcavity.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    return [json.loads(line.removeprefix("loaded "))
            for line in run.stdout.splitlines() if line.startswith("loaded ")]


def test_closed_form_commands_load_no_oracle_module():
    loaded = _loaded_in_fresh_interpreter(
        "import catcavity.cli, catcavity.validation",
        "assert catcavity.cli.main(['figure', 'fig1', '--nb', '0', "
        "'--gt-max', '2', '--gt-step', '1', '--out', tempfile.mkdtemp()]) "
        "== 0",
        "assert catcavity.cli.main(['validate', '--level', 'fast']) == 0")
    assert loaded == [[], [], []]


def test_oracle_import_defers_scipy_integrate_and_sparse():
    [loaded] = _loaded_in_fresh_interpreter("import catcavity.oracle")
    assert "scipy.integrate" not in loaded and "scipy.sparse" not in loaded
    from scipy.integrate import solve_ivp
    assert oracle.solve_ivp is solve_ivp
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        oracle.nosuch


def _command_in_fresh_interpreter(warning_flags, *args):
    """Run `python <warning_flags> -m catcavity.cli <args>` on this tree's
    sources and return the finished process."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(catcavity.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, *warning_flags, "-m", "catcavity.cli", *args],
        env=env, capture_output=True, text=True)


def test_full_validation_passes_with_warnings_as_errors():
    run = _command_in_fresh_interpreter(
        ["-W", "error::UserWarning", "-W", "error::RuntimeWarning"],
        "validate", "--level", "full")
    assert run.returncode == 0, run.stdout + run.stderr


def test_fig1_runs_with_runtime_warnings_as_errors(tmp_path):
    run = _command_in_fresh_interpreter(
        ["-W", "error::RuntimeWarning"], "figure", "fig1", "--nb", "0.1",
        "--gt-step", "0.5", "--out", str(tmp_path))
    assert run.returncode == 0, run.stderr


def test_main_reuses_one_parser_across_refusals(tmp_path, capsys,
                                                monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda build=cli.build_parser: built.append(1)
                        or build())
    cli._parser.cache_clear()
    try:
        with pytest.raises(SystemExit) as refused:
            main(["figure", "fig9"])
        assert refused.value.code == 2
        # refused by the library's rule: nb has no default
        assert main(["figure", "fig1", "--out", str(tmp_path / "x")]) == 2
        fig1 = ["figure", "fig1", "--nb", "0.1", "--gt-max", "2",
                "--gt-step", "0.5", "--out"]
        assert main(fig1 + [str(tmp_path / "first")]) == 0
        assert main(["figure", "fig1", "--nb", "0.1", "--preset", "brune96",
                     "--phi", "1.7", "--si-times", "--gt-max", "2",
                     "--out", str(tmp_path / "other")]) == 0
        assert main(fig1 + [str(tmp_path / "again")]) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    for tag in ("coherent", "cat"):
        name = f"fig1_{tag}.csv"
        assert ((tmp_path / "first" / name).read_bytes()
                == (tmp_path / "again" / name).read_bytes())


def test_write_csv_same_bytes_from_numpy_and_python_floats(tmp_path):
    values = np.array([0.0, -0.0, 1.0 / 3.0, np.nan, 2.5e-13, -1.5e300])
    header = ("x", "y", "label")
    labels = [f"v{i}" for i in range(values.size)]
    cli._write_csv(tmp_path / "numpy.csv", "# meta", header,
                   zip(values, values[::-1], labels))
    cli._write_csv(tmp_path / "python.csv", "# meta", header,
                   zip(values.tolist(), values[::-1].tolist(), labels))
    text = (tmp_path / "numpy.csv").read_bytes()
    assert text == (tmp_path / "python.csv").read_bytes()
    assert text.decode() == ("# meta\nx,y,label\n0,-1.5e+300,v0\n"
                             "-0,2.5e-13,v1\n0.333333333333,,v2\n"
                             ",0.333333333333,v3\n2.5e-13,-0,v4\n"
                             "-1.5e+300,0,v5\n")
