import glob
import hashlib
import json
import os
import re
import shlex
import stat
import subprocess
import sys

import pytest

from alloc_bandit import cli, harness

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def invoke(*args, env=None, cwd=None):
    full_env = dict(os.environ)
    full_env.setdefault("ALLOC_BANDIT_THREADS", "1")
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "alloc_bandit", *args],
        capture_output=True,
        text=True,
        env=full_env,
        cwd=cwd or PKG_ROOT,
    )


class TestRunCommand:
    def test_known_bounds_writes_full_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        result = invoke(
            "run", "--nus", "0.4,0.6", "--horizon", "1000", "--seed", "7",
            "--lower-bounds", "0.2,0.3", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        assert "final_regret=" in result.stdout
        lines = out.read_text().splitlines()
        assert len(lines) == 1001  # header + one row per step
        assert lines[0] == "t,M_1,M_2,X_1,X_2,r_t,cumregret"

    def test_self_initializing_run(self, tmp_path):
        out = tmp_path / "trace.csv"
        result = invoke(
            "run", "--nus", "0.4,0.6", "--horizon", "200", "--seed", "3",
            "--out", str(out), "--snapshot-intervals",
        )
        assert result.returncode == 0, result.stderr
        header = out.read_text().splitlines()[0]
        assert header.endswith("L_1,L_2,U_1,U_2")

    @pytest.mark.parametrize("bound", ["inf", "null"])
    def test_unbounded_lower_bound_is_an_error(self, tmp_path, bound):
        # A lower bound is a plain number: inf fails the bound rule, and
        # null, which means "unbounded" only for --nus, fails to parse.
        out = tmp_path / "trace.csv"
        result = invoke("run", "--nus", "0.4,0.6", "--horizon", "10",
                        "--lower-bounds", f"0.2,{bound}", "--out", str(out))
        if bound == "inf":
            assert result.returncode == 1
            assert result.stderr == (
                "error: initial_lower_bounds[1] must be positive and finite with a finite "
                "reciprocal, got inf\n"
            )
        else:
            assert result.returncode == 2
            assert result.stderr.endswith(
                "error: argument --lower-bounds: expected a comma-separated list of numbers, "
                f"got '0.2,{bound}'\n"
            )
        assert not out.exists()

    def test_config_flag_is_unrecognized(self, tmp_path):
        # The instance comes from --nus, --horizon and --seed only.
        config = tmp_path / "x.json"
        config.write_text(json.dumps({"nus": [0.5], "horizon": 5, "seed": 0}))
        result = invoke("run", "--nus", "0.5", "--horizon", "5", "--config", str(config))
        assert result.returncode == 2
        assert result.stderr.endswith(f"error: unrecognized arguments: --config {config}\n")
        assert result.stdout == ""
        result = invoke("run", "--config", str(config))
        assert result.returncode == 2
        assert "the following arguments are required: --nus, --horizon" in result.stderr

    def test_missing_horizon_fails(self):
        result = invoke("run", "--nus", "0.4,0.6")
        assert result.returncode == 2
        assert result.stderr.endswith("error: the following arguments are required: --horizon\n")
        assert result.stdout == ""

    def test_snapshot_intervals_without_out_fails(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["run", "--nus", "0.4,0.6", "--horizon", "10", "--snapshot-intervals"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith("error: --out is required with --snapshot-intervals\n")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_bad_numeric_flag_names_flag(self):
        result = invoke("run", "--nus", "0.4,abc", "--horizon", "10")
        assert result.returncode == 2
        assert result.stderr.endswith(
            "error: argument --nus: expected a comma-separated list of numbers, with null "
            "for an unbounded job, got '0.4,abc'\n"
        )
        assert result.stdout == ""

    def test_identical_invocations_identical_outputs(self, tmp_path):
        args = ["run", "--nus", "0.4,0.6", "--horizon", "300", "--seed", "11",
                "--lower-bounds", "0.2,0.3"]
        a = invoke(*args, "--out", str(tmp_path / "a.csv"))
        b = invoke(*args, "--out", str(tmp_path / "b.csv"))
        assert a.returncode == b.returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert a.stdout.replace("a.csv", "") == b.stdout.replace("b.csv", "")

    def test_no_partial_output_on_failure(self, tmp_path):
        out = tmp_path / "never.csv"
        result = invoke(
            "run", "--nus", "0.4,-0.6", "--horizon", "10", "--out", str(out)
        )
        assert result.returncode != 0
        assert not out.exists()

    @pytest.mark.parametrize("bounds", [[], ["--lower-bounds", "0.2,0.3"]])
    def test_without_out_only_the_final_regret_is_recorded(
        self, tmp_path, monkeypatch, capsys, bounds
    ):
        levels = []
        for name in ("run_episode", "run_modified"):
            def recording(instance, *args, real=getattr(cli, name)):
                levels.append(args[-1].record)
                return real(instance, *args)

            monkeypatch.setattr(cli, name, recording)
        argv = ["run", "--nus", "0.4,0.6", "--horizon", "3000", "--seed", "5", *bounds]
        out = tmp_path / "trace.csv"
        assert cli.main(argv + ["--snapshot-intervals", "--out", str(out)]) == 0
        with_out = capsys.readouterr().out
        assert cli.main(argv) == 0
        without_out = capsys.readouterr().out
        assert levels == ["intervals", "final"]
        assert without_out == with_out.replace(f" wrote={out}", "")


class TestOutputFiles:
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_files_get_the_mode_a_plain_open_gives(self, tmp_path, umask):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "experiment_id": "mode", "nus": [0.4, 0.6], "sweep": "horizon",
            "grid": [20], "replications": 2,
        }))
        commands = {
            "trace.csv": ["run", "--nus", "0.4,0.6", "--horizon", "20"],
            "aggregate.csv": ["experiment", "--config", str(config)],
            "init.csv": ["init-stats", "--nu", "0.5", "--reps", "5"],
        }
        previous = os.umask(umask)
        try:
            results = [invoke(*argv, "--out", str(tmp_path / name))
                       for name, argv in commands.items()]
            with open(tmp_path / "plain.txt", "w"):
                pass
        finally:
            os.umask(previous)
        assert [r.returncode for r in results] == [0, 0, 0], [r.stderr for r in results]
        assert stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode) == 0o666 & ~umask
        for name in commands:
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask, name

    def test_writes_never_touch_the_process_umask(self, tmp_path, monkeypatch):
        # Setting the umask, even briefly, changes the mode of files other
        # threads create meanwhile.
        def umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", umask)
        assert cli.main(["run", "--nus", "0.4,0.6", "--horizon", "20",
                         "--out", str(tmp_path / "trace.csv")]) == 0
        assert cli.main(["init-stats", "--nu", "0.5", "--reps", "5",
                         "--out", str(tmp_path / "init.csv")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["init.csv", "trace.csv"]

    def test_missing_directory_error_names_the_requested_path(self, tmp_path):
        out = tmp_path / "missing_dir" / "x.csv"
        result = invoke("run", "--nus", "0.4,0.6", "--horizon", "10", "--out", str(out))
        assert result.returncode == 1
        assert result.stderr == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert not (tmp_path / "missing_dir").exists()

    @pytest.mark.parametrize("argv,runner", [
        (["run", "--nus", "0.4,0.6", "--horizon", "20"], "run_modified"),
        (["experiment", "--config", "{config}"], "run_experiment"),
        (["init-stats", "--nu", "0.5", "--reps", "5"], "halving_init"),
    ], ids=["run", "experiment", "init-stats"])
    @pytest.mark.parametrize("bad,message", [
        ("missing_dir/x.csv", "[Errno 2] No such file or directory"),
        ("a_dir", "[Errno 21] Is a directory"),
        ("a_file/x.csv", "[Errno 20] Not a directory"),
    ], ids=["missing-dir", "is-a-dir", "not-a-dir"])
    def test_a_bad_out_fails_before_the_run(self, tmp_path, monkeypatch, capsys,
                                            argv, runner, bad, message):
        # The write comes after the whole run; its error must not wait for it.
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "experiment_id": "early", "nus": [0.4, 0.6], "sweep": "horizon",
            "grid": [20], "replications": 2,
        }))
        (tmp_path / "a_dir").mkdir()
        (tmp_path / "a_file").write_text("")
        monkeypatch.setattr(cli, runner, lambda *args: pytest.fail(f"{runner} ran"))
        out = str(tmp_path / bad)
        assert cli.main([a.format(config=config) for a in argv] + ["--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}: {out!r}\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a_dir", "a_file", "exp.json"]
        assert list((tmp_path / "a_dir").iterdir()) == []


class TestExperimentCommand:
    def test_config_driven_sweep(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "experiment_id": "mini",
            "nus": [0.4, 0.6],
            "sweep": "horizon",
            "grid": [100, 200],
            "replications": 3,
            "base_seed": 5,
        }))
        out = tmp_path / "exp.csv"
        result = invoke("experiment", "--config", str(config), "--out", str(out))
        assert result.returncode == 0, result.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "grid_value,arm,mean_regret,stderr,reps"
        assert len(lines) == 3
        assert "experiment mini" in result.stdout

    def test_reps_override(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "experiment_id": "mini",
            "nus": [0.4, 0.6],
            "sweep": "horizon",
            "grid": [50],
            "replications": 100,
            "base_seed": 5,
        }))
        out = tmp_path / "exp.csv"
        result = invoke("experiment", "--config", str(config), "--out", str(out), "--reps", "2")
        assert result.returncode == 0, result.stderr
        assert out.read_text().splitlines()[1].endswith(",2")

    def test_reps_sets_a_config_without_replications(self, tmp_path):
        # --reps overrides the default too: the file needs no replications key.
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "experiment_id": "mini",
            "nus": [0.4, 0.6],
            "sweep": "horizon",
            "grid": [50],
            "base_seed": 5,
        }))
        out = tmp_path / "exp.csv"
        result = invoke("experiment", "--config", str(config), "--out", str(out), "--reps", "2")
        assert result.returncode == 0, result.stderr
        assert out.read_text().splitlines()[1].endswith(",2")

    def test_unknown_config_key_is_an_error(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "experiment_id": "mini",
            "nus": [0.4, 0.6],
            "sweep": "horizon",
            "grid": [50],
            "replication": 2,
        }))
        result = invoke("experiment", "--config", str(config))
        assert result.returncode == 1
        assert "'replication'" in result.stderr

    def test_bad_config_value_is_an_error(self, tmp_path):
        # --reps replaces the parsed count, so it cannot mask a bad file.
        config = tmp_path / "exp.json"
        for extra in [(), ("--reps", "6")]:
            config.write_text(json.dumps({
                "experiment_id": "mini",
                "nus": [0.4, 0.6],
                "sweep": "horizon",
                "grid": [50],
                "replications": 2.5,
            }))
            result = invoke("experiment", "--config", str(config), *extra)
            assert result.returncode == 1
            assert "replications must be an integer, got 2.5" in result.stderr
            config.write_text(json.dumps({"experiment_id": "mini", "nus": [0.4, 0.6], "grid": [50]}))
            result = invoke("experiment", "--config", str(config), *extra)
            assert result.returncode == 1
            assert "missing required key 'sweep'" in result.stderr

    def test_output_path_key_is_unknown(self, tmp_path, monkeypatch, capsys):
        # The CSV goes only where --out says; a config cannot name a path.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.json").write_text(json.dumps({
            "experiment_id": "mini", "nus": [0.4, 0.6], "sweep": "horizon", "grid": [50],
            "replications": 2, "output_path": "agg.csv",
        }))
        assert cli.main(["experiment", "--config", "exp.json"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown config key 'output_path'; ")
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]

    def test_without_out_nothing_is_written(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("ALLOC_BANDIT_THREADS", "1")
        (tmp_path / "exp.json").write_text(json.dumps({
            "experiment_id": "mini", "nus": [0.4, 0.6], "sweep": "horizon", "grid": [50],
            "replications": 2,
        }))
        assert cli.main(["experiment", "--config", "exp.json"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("experiment mini: 1 points x 1 arms x 2 reps, ")
        assert "wrote=" not in out
        assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]

    def test_hard_job_sweep_is_the_minimax_run(self, tmp_path):
        # minimax_stress is this sweep: its means come back bit for bit from the CSV.
        config = tmp_path / "hard.json"
        config.write_text(json.dumps({
            "experiment_id": "hard", "nus": [2.0, 2.0, 2.0], "horizon": 60,
            "sweep": "hard_job", "grid": [1, 2, 3], "replications": 4, "base_seed": 11,
        }))
        out = tmp_path / "hard.csv"
        result = invoke("experiment", "--config", str(config), "--out", str(out))
        assert result.returncode == 0, result.stderr
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0] == ["grid_value", "arm", "mean_regret", "stderr", "reps"]
        stress = harness.minimax_stress(60, 3, 4, 11, workers=1)
        assert tuple(float(row[2]) for row in rows[1:]) == stress.per_instance_mean
        minimax = invoke("minimax", "--horizon", "60", "--k", "3", "--reps", "4", "--seed", "11")
        assert result.stderr == minimax.stderr
        assert result.stderr.startswith("health: 12 cells, ")

    def test_aggregate_csv_bytes_are_pinned(self, tmp_path):
        # sha256 of the desk pass's gap_sweep CSV (README, Reproducing).
        out = tmp_path / "gap_sweep.csv"
        result = invoke("experiment", "--config", "scripts/configs/gap_sweep.json",
                        "--reps", "6", "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "666d5155a667fe93bb9d8261176186592e16fc6188d22643f23e492a0c871e19")

    def test_missing_config_file(self, tmp_path):
        result = invoke("experiment", "--config", str(tmp_path / "nope.json"))
        assert result.returncode != 0
        assert result.stderr


class TestMinimaxCommand:
    def test_prints_sup_and_ratio(self):
        result = invoke("minimax", "--horizon", "200", "--k", "2", "--reps", "3", "--seed", "1")
        assert result.returncode == 0, result.stderr
        assert "sup_regret=" in result.stdout
        assert "ratio=" in result.stdout

    def test_output_bytes_are_pinned(self):
        result = invoke("minimax", "--horizon", "60", "--k", "3", "--reps", "4", "--seed", "11")
        assert result.returncode == 0, result.stderr
        assert result.stdout == (
            "minimax: n=60 K=3 reps=4 sup_regret=2.3203 sqrt_nK=13.4164 ratio=0.172945\n")
        assert result.stderr == (
            "health: 12 cells, coverage_failures=0 weight_capped=0 collapsed=0\n")

    def test_deterministic(self):
        args = ("minimax", "--horizon", "150", "--k", "2", "--reps", "2", "--seed", "9")
        assert invoke(*args).stdout == invoke(*args).stdout

    def test_prints_health_to_stderr(self):
        result = invoke("minimax", "--horizon", "50", "--k", "2", "--reps", "2")
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("minimax: n=50 K=2 reps=2 ")
        assert result.stderr == "health: 4 cells, coverage_failures=0 weight_capped=0 collapsed=0\n"

    def test_health_sums_over_members_and_reps(self, monkeypatch, capsys):
        def cell(args):
            _, _, point, _, rep = args
            return 0.0, point, rep, 2

        monkeypatch.setenv("ALLOC_BANDIT_THREADS", "1")
        monkeypatch.setattr(harness, "_run_cell", cell)
        assert cli.main(["minimax", "--horizon", "50", "--k", "3", "--reps", "2"]) == 0
        err = capsys.readouterr().err
        assert err == "health: 6 cells, coverage_failures=6 weight_capped=3 collapsed=12\n"


class TestInitStatsCommand:
    @pytest.mark.parametrize("nu,top", [("0.3", 0.3), ("1.5", 1.0), ("inf", 1.0)],
                             ids=["nu0.3", "nu1.5", "inf"])
    def test_summary_and_csv(self, tmp_path, nu, top):
        out = tmp_path / "init.csv"
        result = invoke(
            "init-stats", "--nu", nu, "--reps", "500", "--seed", "4", "--out", str(out)
        )
        assert result.returncode == 0, result.stderr
        assert "mean_eta=" in result.stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "rep,steps,nu_lower0,eta"
        assert len(lines) == 501
        for rep, line in enumerate(lines[1:]):
            index, steps, nu_lower0, eta = line.split(",")
            assert int(index) == rep
            # float() rejects numpy scalar reprs such as "np.float64(3.2)";
            # eta = min(1, nu) * 2^steps and nu_lower0 = 2^-steps, exactly.
            assert float(nu_lower0) == 2.0 ** -int(steps), line
            assert float(eta) == top * 2.0 ** int(steps), line

    def test_unbounded_difficulty(self):
        result = invoke("init-stats", "--nu", "inf", "--reps", "200", "--seed", "0")
        assert result.returncode == 0, result.stderr
        # probes on an impossible job stop at the first step with bound 1/2
        assert "mean_eta=2 " in result.stdout

    def test_rejects_non_positive(self):
        result = invoke("init-stats", "--nu", "-1", "--reps", "10")
        assert result.returncode != 0

    # sha256 of the per-replication CSV, recorded before halving_init
    # returned a tuple; the capped case stops every probe at the guard.
    @pytest.mark.parametrize("args,digest", [
        (("--nu", "0.3", "--reps", "5000", "--seed", "5"),
         "64571c079304a341d6ed874721eeaaef1e5d6d05f42f4a4721eb53f3d3f69b02"),
        (("--nu", "1e-30", "--reps", "3", "--seed", "1"),
         "0de360ac6f482e64f2aaad383a584bc0660a3d958968f5c57aa2ccc4de994f3d"),
    ], ids=["nu0.3", "capped"])
    def test_csv_matches_pinned_digest(self, tmp_path, args, digest):
        out = tmp_path / "init.csv"
        result = invoke("init-stats", *args, "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestUsage:
    def test_library_key_error_is_not_caught(self, monkeypatch):
        def stress(*args):
            raise KeyError("x")

        monkeypatch.setattr(cli, "minimax_stress", stress)
        with pytest.raises(KeyError):
            cli.main(["minimax", "--horizon", "50", "--k", "2", "--reps", "2"])

    @pytest.mark.parametrize("threads", ["1_6", "\u0663", "+2"])
    def test_bad_thread_count_exits_1(self, monkeypatch, capsys, threads):
        monkeypatch.setenv("ALLOC_BANDIT_THREADS", threads)
        assert cli.main(["minimax", "--horizon", "50", "--k", "2", "--reps", "2"]) == 1
        assert "ALLOC_BANDIT_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--nus", "0.4,0.6", "--horizon", "{}"],
        ["run", "--nus", "0.4,0.6", "--horizon", "10", "--seed", "{}"],
        ["experiment", "--config", "sweep.json", "--reps", "{}"],
        ["minimax", "--horizon", "{}", "--k", "2"],
        ["minimax", "--horizon", "50", "--k", "{}"],
        ["minimax", "--horizon", "50", "--k", "2", "--reps", "{}"],
        ["minimax", "--horizon", "50", "--k", "2", "--seed", "{}"],
        ["init-stats", "--nu", "0.5", "--reps", "{}"],
        ["init-stats", "--nu", "0.5", "--seed", "{}"],
    ], ids=lambda argv: f"{argv[0]}-{argv[argv.index('{}') - 1].lstrip('-')}")
    def test_integer_flags_take_ascii_digits_only(self, capsys, argv):
        # int() would take each of these; the run must not start.
        flag = argv[argv.index("{}") - 1]
        for raw in ("\u0661\u0660", "1_000", "+5", " 5", "5\n"):
            assert cli.main([raw if a == "{}" else a for a in argv]) == 2
            captured = capsys.readouterr()
            assert captured.err.endswith(
                f"error: argument {flag}: expected an integer in ASCII digits, got {raw!r}\n")
            assert captured.out == ""

    @pytest.mark.parametrize("extra,code", [((), 0), (("--bogus",), 2)], ids=["ok", "unknown-flag"])
    def test_entrypoint_exits_with_the_command_status(self, monkeypatch, capsys, extra, code):
        # The function the installed alloc-bandit script calls.
        monkeypatch.setenv("ALLOC_BANDIT_THREADS", "1")
        monkeypatch.setattr(sys, "argv", ["alloc-bandit", "minimax", "--horizon", "50",
                                          "--k", "2", "--reps", "1", *extra])
        with pytest.raises(SystemExit) as exc:
            cli.entrypoint()
        assert exc.value.code == code
        assert capsys.readouterr().out.startswith("minimax:") == (code == 0)

    @pytest.mark.parametrize("argv", [
        ["run", "--nus", "0.4,0.6", "--horizon", "10"],
        ["run", "--nus", "0.4,0.6", "--horizon", "10", "--snapshot-intervals"],
        ["experiment", "--config", "exp.json"],
        ["init-stats", "--nu", "0.5", "--reps", "5"],
    ], ids=["run", "run-snapshot-intervals", "experiment", "init-stats"])
    def test_empty_out_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        # The commands test `if args.out`, so an empty path would run and write nothing.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("ALLOC_BANDIT_THREADS", "1")
        (tmp_path / "exp.json").write_text(json.dumps({
            "experiment_id": "mini", "nus": [0.4, 0.6], "sweep": "horizon", "grid": [50],
            "replications": 2,
        }))
        assert cli.main([*argv, "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith("error: argument --out: expected a file path, got ''\n")
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]

    def test_no_subcommand(self):
        result = invoke()
        assert result.returncode != 0
        assert result.stderr

    def test_unknown_subcommand(self):
        result = invoke("frobnicate")
        assert result.returncode != 0


def test_experiment_output_independent_of_thread_count(tmp_path):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "experiment_id": "det",
        "nus": [0.4, 0.6],
        "sweep": "horizon",
        "grid": [80],
        "replications": 4,
        "base_seed": 12,
    }))
    outputs = {}
    for threads in ("1", "4"):
        out = tmp_path / f"out_{threads}.csv"
        result = invoke(
            "experiment", "--config", str(config), "--out", str(out),
            env={"ALLOC_BANDIT_THREADS": threads},
        )
        assert result.returncode == 0, result.stderr
        outputs[threads] = out.read_bytes()
    assert outputs["1"] == outputs["4"]


def readme_commands() -> list:
    """The argv of every ``alloc-bandit ...`` line in README's ``sh`` blocks,
    with backslash continuations joined and comments dropped."""
    with open(os.path.join(PKG_ROOT, "README.md")) as handle:
        blocks = re.findall(r"^```sh\n(.*?)^```", handle.read(), re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("alloc-bandit ")]


def test_readme_has_an_example_of_every_subcommand():
    assert {argv[0] for argv in readme_commands()} == {"run", "experiment", "minimax", "init-stats"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_examples_parse(argv, capsys):
    # A flag that leaves the CLI cannot stay in the docs.
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"alloc-bandit {' '.join(argv)}: {capsys.readouterr().err}")


CONFIGS = sorted(glob.glob("scripts/configs/*.json", root_dir=PKG_ROOT))


def readme_configs() -> set:
    return {argv[argv.index("--config") + 1] for argv in readme_commands() if "--config" in argv}


def test_readme_scripts_exist():
    # A config that leaves the repo cannot stay in the docs either.
    for path in readme_configs():
        assert os.path.isfile(os.path.join(PKG_ROOT, path)), path


def test_readme_runs_every_committed_config():
    assert set(CONFIGS) <= readme_configs()


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_committed_config_parses(path):
    with open(os.path.join(PKG_ROOT, path)) as handle:
        config = harness.ExperimentConfig.from_json(handle.read())
    horizons = [config.instance_at(p).horizon for p in range(len(config.grid))]
    assert all(type(n) is int for n in horizons)
