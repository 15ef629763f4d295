"""Tests for the command-line interface."""

import io

import pytest

from repro import StudyConfig
from repro.attacks.schedule import AttackScheduleConfig
from repro.cli import build_parser, main
from repro.net.errors import ConfigError
from repro.scanner.zmap import ScanConfig
from repro.telescope.telescope import TelescopeConfig


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.seed == 7
        assert not args.quick

    def test_scan_options(self):
        args = build_parser().parse_args(
            ["scan", "--seed", "3", "--scale", "8192", "--eu-blocklist",
             "--export", "/tmp/x.jsonl"]
        )
        assert args.seed == 3
        assert args.scale == 8192
        assert args.eu_blocklist
        assert args.export == "/tmp/x.jsonl"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def _run(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_scan_quick(self):
        code, text = self._run(["scan", "--quick"])
        assert code == 0
        assert "Table 4" in text
        assert "Table 5" in text
        assert "Table 6" in text

    def test_scan_export(self, tmp_path, quick_study):
        path = tmp_path / "scan.jsonl"
        code, text = self._run(["scan", "--quick", "--export", str(path)])
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) > 100
        import json

        row = json.loads(lines[0])
        assert "ip" in row and "protocol" in row
        # The streamed export is the store's JSONL byte for byte (no
        # trailing newline).
        assert path.read_bytes() == (
            quick_study.merged_db.to_jsonl().encode("utf-8")
        )

    def test_attacks_quick(self):
        code, text = self._run(["attacks", "--quick", "--days", "10"])
        assert code == 0
        assert "Table 7" in text
        assert "Figure 8" in text
        assert "day 10" in text
        assert "day 11" not in text  # honored --days

    def test_telescope_quick(self):
        code, text = self._run(["telescope", "--quick"])
        assert code == 0
        assert "Table 8" in text
        assert "rsdos attacks in capture" in text

    def test_telescope_export_day(self):
        code, text = self._run(
            ["telescope", "--quick", "--export-day", "0"]
        )
        assert code == 0
        # FlowTuple CSV lines present: 14 comma-separated fields.
        data_lines = [line for line in text.splitlines()
                      if line.count(",") == 13]
        assert data_lines

    def test_intersect_quick(self):
        code, text = self._run(["intersect", "--quick"])
        assert code == 0
        assert "misconfigured devices attacking" in text

    def test_deterministic_output(self):
        _, first = self._run(["scan", "--quick", "--seed", "5"])
        _, second = self._run(["scan", "--quick", "--seed", "5"])
        assert first == second


class TestEngineFlags:
    def _run(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_metrics_json_to_file(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        code, _ = self._run(
            ["scan", "--quick", "--metrics-json", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        phases = {p["phase"] for p in payload["phases"]}
        assert {"world", "zmap", "sonar", "shodan", "merge"} <= phases
        assert "scan" in payload["group_seconds"]

    def test_metrics_json_to_stdout(self):
        code, text = self._run(
            ["attacks", "--quick", "--days", "5", "--metrics-json", "-"]
        )
        assert code == 0
        assert '"cache_hits"' in text

    def test_cache_dir_reused_across_invocations(self, tmp_path):
        import json

        cache_dir = str(tmp_path / "cache")
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        self._run(["scan", "--quick", "--seed", "8", "--cache-dir",
                   cache_dir, "--metrics-json", str(first)])
        self._run(["scan", "--quick", "--seed", "8", "--cache-dir",
                   cache_dir, "--metrics-json", str(second)])
        assert json.loads(first.read_text())["cache_hits"] == 0
        assert json.loads(second.read_text())["cache_misses"] == 0

    def test_config_error_exit_code(self, capsys):
        code, _ = self._run(["scan", "--quick", "--scale", "-4"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_negative_seed_exit_code(self):
        code, _ = self._run(["run", "--quick", "--seed", "-3"])
        assert code == 2


class TestRunCommand:
    def test_run_quick_prints_every_artifact(self):
        import io

        from repro.cli import main

        out = io.StringIO()
        assert main(["run", "--quick"], out=out) == 0
        text = out.getvalue()
        for marker in ("Table 4", "Table 5", "Table 6", "Table 7",
                       "Table 8", "Table 10", "Figure 2", "Figure 7",
                       "Figure 8", "Figure 9", "Section 5.1",
                       "Section 5.3"):
            assert marker in text, marker


class TestThreadExecutorRemoved:
    """``thread`` is no longer an executor, nor ``--threads`` a flag."""

    @pytest.mark.parametrize("request_thread", [
        pytest.param(lambda: StudyConfig(executor="thread"),
                     id="StudyConfig"),
        pytest.param(lambda: ScanConfig(executor="thread"),
                     id="ScanConfig"),
        pytest.param(lambda: AttackScheduleConfig(executor="thread"),
                     id="AttackScheduleConfig"),
        pytest.param(lambda: TelescopeConfig(executor="thread"),
                     id="TelescopeConfig"),
        pytest.param(["run", "--quick", "--executor", "thread"],
                     id="run --executor thread"),
        pytest.param(["run", "--quick", "--threads"], id="run --threads"),
    ])
    def test_thread_is_rejected(self, request_thread):
        if callable(request_thread):
            with pytest.raises(ConfigError):
                request_thread()
            return
        try:
            code = main(request_thread, out=io.StringIO())
        except SystemExit as exit:  # argparse rejects unknown flags
            code = exit.code
        assert code == 2
