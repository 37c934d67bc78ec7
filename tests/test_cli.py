"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory):
    """A small simulated deployment written as ELFF logs."""
    out = tmp_path_factory.mktemp("cli-logs")
    code = main([
        "simulate", "--requests", "6000", "--seed", "9",
        "--out", str(out), "--per-proxy", "--boosts",
    ])
    assert code == 0
    return out


class TestSimulate:
    def test_writes_one_file_per_proxy(self, log_dir):
        files = sorted(p.name for p in log_dir.glob("*.log"))
        assert files == [f"sg-{n}.log" for n in range(42, 49)]

    def test_files_have_elff_directives(self, log_dir):
        text = (log_dir / "sg-42.log").read_text()
        assert text.startswith("#Software:")
        assert "#Fields:" in text

    def test_combined_output(self, tmp_path):
        code = main([
            "simulate", "--requests", "1500", "--seed", "2",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "proxies.log").exists()

    def test_per_day_split(self, tmp_path):
        code = main([
            "simulate", "--requests", "2000", "--seed", "3",
            "--out", str(tmp_path), "--per-day",
        ])
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("*.log"))
        assert "2011-08-03.log" in files
        assert len(files) == 9  # one per log day

    def test_per_proxy_per_day_split(self, tmp_path):
        code = main([
            "simulate", "--requests", "2000", "--seed", "3",
            "--out", str(tmp_path), "--per-proxy", "--per-day",
        ])
        assert code == 0
        files = {p.name for p in tmp_path.glob("*.log")}
        assert "sg-42_2011-07-22.log" in files
        # July days exist only for SG-42, like the leak
        assert not any(
            name.startswith("sg-43_2011-07") for name in files
        )


class TestAnalyze:
    def test_prints_breakdown(self, log_dir, capsys):
        code = main([
            "analyze", *[str(p) for p in sorted(log_dir.glob("*.log"))],
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "Traffic breakdown" in output
        assert "censored" in output
        assert "facebook.com" in output or "google.com" in output

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["analyze", str(tmp_path / "nope.log")])

    def test_streaming_mode(self, log_dir, capsys):
        code = main([
            "analyze", "--streaming",
            *[str(p) for p in sorted(log_dir.glob("*.log"))],
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "streaming" in output
        assert "Top censored domains" in output


class TestRecover:
    def test_recovers_policy(self, log_dir, capsys):
        code = main([
            "recover", *[str(p) for p in sorted(log_dir.glob("*.log"))],
            "--min-censored", "2",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "URL-blocked domains" in output
        assert "proxy" in output  # the keyword is always recoverable

    @pytest.fixture(scope="class")
    def recover_logs(self, tmp_path_factory):
        """Logs whose recovery has a row in every table (seed 2 at 8k
        requests recovers the messenger.live.com gateway)."""
        out = tmp_path_factory.mktemp("recover-logs")
        assert main([
            "simulate", "--requests", "8000", "--seed", "2",
            "--out", str(out), "--boosts",
        ]) == 0
        return sorted(out.glob("*.log"))

    @pytest.mark.parametrize("min_censored", [None, 2])
    def test_prints_the_library_recovery(
        self, recover_logs, capsys, min_censored
    ):
        """Every printed row is the recovery's own, at the default
        threshold and at ``--min-censored 2``."""
        from repro.analysis.stringfilter import recover_policy
        from repro.engine import load_frames

        paths = recover_logs
        argv = [] if min_censored is None else [
            "--min-censored", str(min_censored)
        ]
        assert main(["recover", *[str(p) for p in paths], *argv]) == 0
        # One block per table: title, header, rule, then the rows.
        blocks = capsys.readouterr().out.strip().split("\n\n")
        tables = {
            block.splitlines()[0]: [
                line.split() for line in block.splitlines()[3:]
            ]
            for block in blocks
        }
        recovery = recover_policy(load_frames(paths))
        domains = recovery.suspected_domains(
            3 if min_censored is None else min_censored
        )
        assert tables == {
            f"URL-blocked domains ({len(domains)} recovered)": [
                [row.domain, str(row.censored),
                 f"{row.censored_share_pct:.2f}"]
                for row in domains[:20]
            ],
            "Individually blocked hosts": [
                [row.host, str(row.censored)] for row in recovery.hosts[:10]
            ],
            "Recovered keyword blacklist": [
                [k.keyword, str(k.coverage)] for k in recovery.keywords
            ],
        }
        assert domains and recovery.hosts
        assert recovery.keywords[0].keyword == "proxy"


class TestReport:
    def test_report_with_markdown(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main([
            "report", "--requests", "8000", "--seed", "4",
            "--markdown", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert text.startswith("# Censorship report")
        assert "metacafe.com" in text
        assert "recovered keywords" in capsys.readouterr().out

    def test_markdown_is_the_report_of_the_bench_config(self, tmp_path):
        """``report`` prints the tables of the one scenario builder,
        over the benchmarks' config: the default boosts plus the
        July-day boost."""
        from repro.analysis.report import build_report
        from repro.datasets import build_scenario
        from repro.reporting.markdown import report_to_markdown
        from repro.workload.config import (
            DEFAULT_BOOSTS,
            DEFAULT_USER_DAY_BOOST,
            ScenarioConfig,
        )

        out = tmp_path / "report.md"
        assert main([
            "report", "--requests", "8000", "--seed", "4",
            "--markdown", str(out),
        ]) == 0
        config = ScenarioConfig(
            total_requests=8000, seed=4, boosts=dict(DEFAULT_BOOSTS),
            user_day_boost=DEFAULT_USER_DAY_BOOST,
        )
        expected = report_to_markdown(
            build_report(build_scenario(config)),
            title="Censorship report — 8,000 requests, seed 4",
        )
        assert out.read_text() == expected


class TestWorkers:
    """The --workers flag: accepted on simulate/analyze/report,
    rejected when < 1, and worker-count-invariant in its output."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--requests", "100", "--out", "x", "--workers", "0"],
        ["analyze", "some.log", "--workers", "0"],
        ["report", "--requests", "100", "--workers", "0"],
        ["simulate", "--requests", "100", "--out", "x", "--workers", "-2"],
        ["simulate", "--requests", "100", "--out", "x", "--workers", "two"],
    ])
    def test_rejects_non_positive_workers(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_simulate_parallel_matches_serial(self, tmp_path):
        for name, workers in (("serial", "1"), ("parallel", "2")):
            code = main([
                "simulate", "--requests", "3000", "--seed", "6",
                "--out", str(tmp_path / name), "--workers", workers,
            ])
            assert code == 0
        assert (tmp_path / "serial" / "proxies.log").read_bytes() == (
            tmp_path / "parallel" / "proxies.log"
        ).read_bytes()

    def test_analyze_streaming_with_workers(self, log_dir, capsys):
        code = main([
            "analyze", "--streaming", "--workers", "2",
            *[str(p) for p in sorted(log_dir.glob("*.log"))],
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "Traffic breakdown" in output
        assert "Top censored domains" in output

    def test_analyze_frames_with_workers(self, log_dir, capsys):
        code = main([
            "analyze", "--workers", "2",
            *[str(p) for p in sorted(log_dir.glob("*.log"))],
        ])
        assert code == 0
        assert "Traffic breakdown" in capsys.readouterr().out

    def test_analyze_workers_match_serial_numbers(self, log_dir, capsys):
        logs = [str(p) for p in sorted(log_dir.glob("*.log"))]
        outputs = []
        for workers in ("1", "3"):
            assert main([
                "analyze", "--streaming", "--workers", workers, *logs,
            ]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_report_with_workers(self, capsys):
        code = main([
            "report", "--requests", "8000", "--seed", "4",
            "--workers", "2",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "allowed" in output
        assert "top censored" in output


class TestCompress:
    """The --compress flag: gzip output that every reader accepts."""

    def test_writes_gz_with_identical_content(self, tmp_path):
        for name, extra in (("plain", []), ("gz", ["--compress"])):
            code = main([
                "simulate", "--requests", "1500", "--seed", "2",
                "--out", str(tmp_path / name), *extra,
            ])
            assert code == 0
        gz_path = tmp_path / "gz" / "proxies.log.gz"
        assert gz_path.exists()
        import gzip

        assert gzip.decompress(gz_path.read_bytes()) == (
            tmp_path / "plain" / "proxies.log"
        ).read_bytes()

    def test_analyze_reads_gz_transparently(self, tmp_path, capsys):
        assert main([
            "simulate", "--requests", "1500", "--seed", "2",
            "--out", str(tmp_path), "--compress",
        ]) == 0
        outputs = []
        for mode in ([], ["--streaming"]):
            assert main([
                "analyze", *mode, str(tmp_path / "proxies.log.gz"),
            ]) == 0
            outputs.append(capsys.readouterr().out)
        assert all("Traffic breakdown" in out for out in outputs)

    def test_gz_analysis_matches_plain(self, tmp_path, capsys):
        for name, extra in (("plain", []), ("gz", ["--compress"])):
            assert main([
                "simulate", "--requests", "1500", "--seed", "2",
                "--out", str(tmp_path / name), *extra,
            ]) == 0
        capsys.readouterr()
        outputs = []
        for log in ("plain/proxies.log", "gz/proxies.log.gz"):
            assert main(["analyze", "--streaming", str(tmp_path / log)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestMainModule:
    """``python -m repro`` must behave exactly like the console script,
    in a fresh interpreter."""

    @staticmethod
    def _run(*argv):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        return subprocess.run(
            [sys.executable, *argv],
            capture_output=True, text=True, env=env,
        )

    def test_version(self):
        from repro.version import __version__

        result = self._run("-m", "repro", "--version")
        assert result.returncode == 0
        assert result.stdout.strip() == __version__

    def test_simulate_round_trip(self, tmp_path):
        result = self._run(
            "-m", "repro", "simulate", "--requests", "600", "--seed", "7",
            "--out", str(tmp_path),
        )
        assert result.returncode == 0, result.stderr
        assert "wrote" in result.stdout
        assert (tmp_path / "proxies.log").exists()

    def test_no_command_exits_with_usage(self):
        result = self._run("-m", "repro")
        assert result.returncode == 2
        assert "usage:" in result.stderr

    def test_streaming_analyze_imports_only_the_read_side(self, log_dir):
        """An ``analyze`` process loads no simulate-side package: not
        the workload, policy, fleet, regime or dispatch code."""
        logs = sorted(str(path) for path in log_dir.glob("*.log"))
        result = self._run("-c", (
            "import contextlib, io, sys\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['analyze', '--streaming', *{logs!r}]) == 0\n"
            "packages = ('repro.workload', 'repro.policy', 'repro.proxy',"
            " 'repro.regimes', 'repro.dispatch')\n"
            "print(sorted(name for name in sys.modules"
            " if name.startswith(packages)))\n"
        ))
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_building_the_parser_does_not_import_numpy(self):
        """``repro --help`` stays light: the parser's defaults come
        from modules that import nothing heavy."""
        result = self._run("-c", (
            "import sys, repro.cli; repro.cli._build_parser(); "
            "print('numpy' in sys.modules)"
        ))
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestRefusals:
    def test_work_refuses_a_queue_no_coordinator_seeds(self, tmp_path):
        """A dispatch error is a clean usage error, not a traceback."""
        with pytest.raises(SystemExit, match="error: .*coordinator"):
            main(["work", str(tmp_path / "queue"),
                  "--startup-timeout", "0.05", "--poll-interval", "0.01"])

    def test_analyze_takes_a_registered_regime_label(self, log_dir, capsys):
        logs = [str(path) for path in sorted(log_dir.glob("*.log"))]
        assert main(["analyze", "--streaming", "--regime", "pakistan",
                     *logs]) == 0
        with pytest.raises(SystemExit, match="unknown regime 'atlantis'"):
            main(["analyze", "--streaming", "--regime", "atlantis", *logs])

    def test_builtin_regimes_are_the_registered_ones(self):
        from repro.cli import _BUILTIN_REGIMES
        from repro.regimes import available_regimes

        assert set(_BUILTIN_REGIMES) == set(available_regimes())


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
