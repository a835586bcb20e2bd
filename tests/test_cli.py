"""Tests for the command-line interface (direct main() invocation)."""

import json

import pytest

from repro.cli import build_parser, main, record_trajectory_entry
from repro.config import theta_config
from repro.data import build_dataset


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "theta.npz"
    build_dataset(theta_config(n_jobs=800)).save(path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_platform_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["census", "--platform", "summit"])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for cmd in ("generate", "census", "noise", "taxonomy", "cluster",
                    "export-darshan", "drift", "schedule"):
            assert cmd in text


class TestCommands:
    def test_generate_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "mini.npz"
        rc = main(["generate", "--platform", "theta", "--jobs", "300", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert "300" in capsys.readouterr().out

    def test_census_on_saved_dataset(self, saved_dataset, capsys):
        rc = main(["census", "--dataset", str(saved_dataset)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "duplicate fraction" in out
        assert "application bound" in out

    def test_noise_on_saved_dataset(self, saved_dataset, capsys):
        rc = main(["noise", "--dataset", str(saved_dataset)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "68% band" in out
        assert "±" in out

    def test_cluster_report(self, saved_dataset, capsys):
        rc = main(["cluster", "--dataset", str(saved_dataset), "--clusters", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Workload clusters" in out

    def test_export_darshan(self, saved_dataset, tmp_path, capsys):
        rc = main(["export-darshan", "--dataset", str(saved_dataset),
                   "--out", str(tmp_path / "logs"), "--limit", "10"])
        assert rc == 0
        assert len(list((tmp_path / "logs").glob("*.darshan.txt"))) == 10

    def test_drift_report(self, saved_dataset, capsys):
        rc = main(["drift", "--dataset", str(saved_dataset), "--top", "3"])
        assert rc == 0
        assert "PSI" in capsys.readouterr().out

    def test_schedule_comparison(self, capsys):
        rc = main(["schedule", "--jobs", "60", "--groups", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        for policy in ("contiguous", "cluster", "random"):
            assert policy in out


class TestTrajectory:
    def test_second_entry_appends_and_leaves_the_first_untouched(self, tmp_path):
        path = record_trajectory_entry({"run": {"value": 1.5}}, tmp_path / "results",
                                       filename="BENCH_x.json")
        first = path.read_text()
        assert record_trajectory_entry({"run": {"value": 2.5}}, tmp_path / "results",
                                       filename="BENCH_x.json") == path
        second = path.read_text()
        trajectory = json.loads(second)
        assert [e["run"]["value"] for e in trajectory] == [1.5, 2.5]
        assert all(set(e) == {"timestamp", "run"} for e in trajectory)
        # the first entry's bytes are unchanged: the file only grew past it
        head = first[:first.rindex("}") + 1]
        assert second.startswith(head) and second[len(head):].startswith(",\n  {")
