"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.harness import clear_cache, configure_cache


@pytest.fixture(autouse=True)
def _isolated_caches(tmp_path, monkeypatch):
    """CLI commands configure the process-wide disk cache; point its
    default at a per-test directory and reset afterwards so no state
    leaks into other test modules (or the user's real cache)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    yield
    configure_cache(enabled=False)
    clear_cache()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "LIB"])
        assert args.technique == "dac"
        assert args.scale == "tiny"
        assert args.cache_dir is None
        assert not args.no_cache

    def test_harness_flags(self):
        args = build_parser().parse_args(
            ["figures", "fig16", "--jobs", "4", "--cache-dir", "/tmp/c",
             "--no-cache"])
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache

    def test_bad_technique_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "LIB", "--technique", "x"])

    def test_service_flags(self):
        args = build_parser().parse_args(
            ["compare", "CP", "--service", "/tmp/d.sock"])
        assert args.service == "/tmp/d.sock" and not args.no_service
        args = build_parser().parse_args(["compare", "CP", "--no-service"])
        assert args.no_service and args.service is None

    @pytest.mark.parametrize("argv", [
        ["serve", "--queue-limit", "1"],
        ["serve", "--heartbeat-timeout", "5"],
        ["serve", "--drain-timeout", "5"],
        ["figures", "--checkpoint", "D"],
        ["compare", "CP", "--retry-quarantined"],
        ["serve", "--no-cache"],
        ["faults"]],
        ids=["queue-limit", "heartbeat-timeout", "drain-timeout",
             "checkpoint", "retry-quarantined", "serve-no-cache",
             "faults"])
    def test_retired_flags_are_errors(self, argv):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2

    @pytest.mark.parametrize("flag", [
        ["--jobs", "2"], ["--timeout", "5"], ["--retries", "2"],
        ["--service", "/tmp/d.sock"], ["--no-service"]],
        ids=lambda flag: flag[0].lstrip("-"))
    def test_run_takes_no_grid_flags(self, flag):
        """``run`` simulates one cell: the grid flags would be ignored."""
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["run", "ST", *flag])
        assert info.value.code == 2

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.socket is None and args.state is None
        assert args.timeout == 120.0
        assert args.strikes == 2
        args = build_parser().parse_args(
            ["serve", "--socket", "/tmp/d.sock", "--workers", "3",
             "--timeout", "5", "--strikes", "1"])
        assert args.socket == "/tmp/d.sock"
        assert args.workers == 3

    def test_serve_listens_next_to_its_cache_dir(self, tmp_path,
                                                 monkeypatch):
        """``serve --cache-dir X`` without ``--socket`` listens on
        ``X/service.sock``, where a client configured with the same
        cache looks for it."""
        from repro.harness.client import SOCKET_ENV
        from repro.service import daemon

        monkeypatch.delenv(SOCKET_ENV, raising=False)
        calls = []

        def fake_run_daemon(socket_path, **kwargs):
            calls.append((socket_path, kwargs))
            return 0

        monkeypatch.setattr(daemon, "run_daemon", fake_run_daemon)
        assert main(["serve", "--cache-dir", str(tmp_path / "x"),
                     "--workers", "1"]) == 0
        (socket_path, kwargs), = calls
        assert socket_path == tmp_path / "x" / "service.sock"
        assert kwargs["cache_dir"] == str(tmp_path / "x")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Compute Intensive" in out and "BFS" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "GTX480" in capsys.readouterr().out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        assert "Overhead" in capsys.readouterr().out

    def test_run_baseline(self, capsys):
        assert main(["run", "CS", "--technique", "baseline",
                     "--sms", "2"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "warp instructions" in out

    def test_run_dac_with_stats(self, capsys):
        assert main(["run", "CS", "--sms", "2", "--stats", "dac."]) == 0
        out = capsys.readouterr().out
        assert "affine warp insts" in out
        assert "dac.records" in out

    def test_run_no_cache(self, capsys):
        assert main(["run", "CS", "--technique", "baseline", "--sms", "2",
                     "--no-cache"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_run_warm_from_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "warm")
        argv = ["run", "CS", "--technique", "baseline", "--sms", "2",
                "--cache-dir", cache]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        clear_cache()
        assert main(argv) == 0
        assert capsys.readouterr().out == cold

    def test_compare(self, capsys):
        assert main(["compare", "CS", "--sms", "2"]) == 0
        out = capsys.readouterr().out
        for technique in ("baseline", "cae", "mta", "dac"):
            assert technique in out

    def test_decouple_benchmark(self, capsys):
        assert main(["decouple", "LIB"]) == 0
        out = capsys.readouterr().out
        assert "enq.data" in out and "deq.data" in out
        assert "verified" in out

    def test_decouple_file(self, tmp_path, capsys):
        path = tmp_path / "k.asm"
        path.write_text("""
            .kernel t (A)
            mul r1, %tid.x, 4;
            add a1, param.A, r1;
            ld.global v, [a1];
            st.global [a1], v;
        """)
        assert main(["decouple", "--file", str(path)]) == 0
        assert "decoupled" in capsys.readouterr().out

    def test_decouple_requires_target(self, capsys):
        with pytest.raises(SystemExit):
            main(["decouple"])

    def test_figures_unknown(self, capsys):
        assert main(["figures", "fig99", "--sms", "2"]) == 2

    def test_figures_fig6(self, capsys):
        assert main(["figures", "fig6", "--sms", "2"]) == 0
        assert "Figure 6" in capsys.readouterr().out


class TestCertifyCommand:
    def test_certify_benchmarks(self, capsys):
        assert main(["certify", "ST", "CS"]) == 0
        out = capsys.readouterr().out
        assert "== ST:" in out and "proven equivalent" in out
        assert "certify: 2 target(s) clean" in out

    def test_certify_fuzz_seeds(self, capsys):
        assert main(["certify", "--fuzz", "0:2"]) == 0
        out = capsys.readouterr().out
        assert "== fuzz-0:" in out and "== fuzz-1:" in out

    def test_certify_json(self, capsys):
        import json
        assert main(["certify", "ST", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ST"]["errors"] == 0

    def test_certify_unknown_benchmark(self, capsys):
        assert main(["certify", "NOPE"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_certify_campaign_single_class(self, capsys):
        assert main(["certify", "--campaign",
                     "--classes", "barrier_drop"]) in (0, 1)
        out = capsys.readouterr().out
        assert "mutation campaign" in out
        assert "SILENT ESCAPE" not in out

    def test_certify_campaign_rejects_unknown_class(self, capsys):
        assert main(["certify", "--campaign", "--classes", "bitrot"]) == 2
        assert "unknown mutation class" in capsys.readouterr().err


def test_entry_points_import_no_networkx():
    """The CLI, the harness and the worker pool run on numpy and the
    standard library alone."""
    code = ("import sys, repro.cli, repro.harness, repro.service.supervisor;"
            " print('networkx' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
