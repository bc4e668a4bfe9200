"""``scripts/benchpair.py``'s pair order, statistics and report, driven by a
fake run function (no benchmark runs here)."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "benchpair.py"


@pytest.fixture(scope="module")
def bp():
    spec = importlib.util.spec_from_file_location("benchpair", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# metric values per (side, seed): peak (lower is better), rate (higher is better)
PEAK = {"parent": [770, 772, 771, 769, 775], "change": [510, 512, 780, 509, 511]}
RATE = {"parent": [1.0, 2.0, 3.0, 4.0, 5.0], "change": [2.0, 1.0, 5.0, 6.0, 9.0]}
SEED0 = 11


def fake_run(side, workload, seed):
    i = seed - SEED0
    bad = side == "change" and i == 4     # one failed change run, with numbers
    return {"exit_code": 1 if bad else 0, "correct": not bad,
            "metrics": {"peak_rss_mb": PEAK[side][i], "clips_per_s": RATE[side][i]}}


def test_pairs_alternate_which_side_runs_first(bp):
    runs = bp.run_pairs(["w"], 4, SEED0, fake_run)
    assert [(r["pair"], r["seed"], r["side"]) for r in runs] == [
        (0, 11, "parent"), (0, 11, "change"), (1, 12, "change"), (1, 12, "parent"),
        (2, 13, "parent"), (2, 13, "change"), (3, 14, "change"), (3, 14, "parent")]


def test_quartiles_are_hand_computed(bp):
    assert bp.quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)
    assert bp.quartiles([769, 770, 771, 772, 775]) == (770, 771, 772)
    assert bp.quartiles([7.5]) == (7.5, 7.5, 7.5)


def test_summary_counts_the_failed_run_and_its_lost_pair(bp):
    runs = bp.run_pairs(["w"], 5, SEED0, fake_run)
    assert len(runs) == 10 and sum(not r["ok"] for r in runs) == 1
    s = bp.summarize(runs, {"peak_rss_mb": "lower", "clips_per_s": "higher"})["w"]
    assert s["runs"] == {"parent": 5, "change": 5}
    assert s["failed"] == {"parent": 0, "change": 1}

    peak = s["metrics"]["peak_rss_mb"]
    assert peak["parent"]["median"] == 771 and peak["parent"]["iqr"] == 2
    # the failed change run (511) is left out of the change's statistics
    assert peak["change"]["n"] == 4
    assert (peak["change"]["q1"], peak["change"]["median"], peak["change"]["q3"]) == (
        509.75, 511, 579)
    # pair 2 (780 vs 771) is lost; pair 4 failed, so 3 wins of 4 compared
    assert (peak["change_better"], peak["pairs_compared"]) == (3, 4)

    rate = s["metrics"]["clips_per_s"]
    assert (rate["parent"]["q1"], rate["parent"]["median"], rate["parent"]["q3"]) == (2, 3, 4)
    assert (rate["change_better"], rate["pairs_compared"]) == (3, 4)
    assert rate["change"]["median"] == 3.5


def test_metric_without_direction_gets_no_win_count(bp):
    runs = bp.run_pairs(["w"], 2, SEED0, fake_run)
    s = bp.summarize(runs, {"peak_rss_mb": "lower"})["w"]["metrics"]
    assert "change_better" not in s["clips_per_s"]
    assert s["clips_per_s"]["parent"]["median"] == 1.5


def fake_bitcheck(lines):
    """A bitcheck runner that prints ``lines[side]``, the side read from
    the exported ``src/``'s parent directory, or ``lines["one_cpu"]`` (by
    default the change's lines) when pinned to one CPU."""
    def run(script, src, one_cpu=False):
        assert script.parts[-3:] == ("change", "scripts", "bitcheck.py")
        side = src.parent.name
        if one_cpu:
            assert side == "change"
            return {"exit_code": 0, "lines": lines.get("one_cpu", lines["change"]),
                    "stderr_tail": []}
        return {"exit_code": 0, "lines": lines[side], "stderr_tail": []}
    return run


def _main_on_fake_repo(bp, tmp_path, monkeypatch, bitcheck, pairs=5):
    """main() on a one-commit repository with an edited perfbench/, the
    benchmark and the bitcheck replaced by fakes; returns the report."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text("# bench\n")
    (repo / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 10, "end_to_end": [{"name": "peak_rss_mb", "better": "lower"},
                                           {"name": "clips_per_s", "better": "higher"}]}))
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "base"], check=True)
    (repo / "perfbench" / "run.py").write_text("# bench, changed\n")

    monkeypatch.setattr(bp, "ROOT", repo)
    monkeypatch.setattr(bp, "perfbench_run",
                        lambda root, w, seed, seconds: fake_run(root.name, w, seed))
    monkeypatch.setattr(bp, "bitcheck_run", bitcheck)
    assert bp.main(["--parent", "HEAD", "--pairs", str(pairs), "--workloads", "prep-paper",
                    "--seed0", str(SEED0), "--label", "t", "--out-dir", str(tmp_path)]) == 0
    return json.loads((tmp_path / "BENCH_t.json").read_text())


def test_report_file_keeps_every_run(bp, tmp_path, monkeypatch, capsys):
    """The file holds both commits, the seeds and order, the environment,
    both bitcheck outputs, every run and the summary."""
    lines = ["tensor     prims 00ff", "cnn_lstm   c07   ee11"]
    report = _main_on_fake_repo(bp, tmp_path, monkeypatch,
                                fake_bitcheck({"parent": lines, "change": lines}))
    assert report["bitcheck"]["same"] is True
    assert report["bitcheck"]["same_one_cpu"] is True
    assert report["bitcheck"]["parent"]["lines"] == report["bitcheck"]["change"]["lines"] == lines
    assert report["bitcheck"]["change_one_cpu"]["lines"] == lines
    assert "bitcheck" not in capsys.readouterr().err
    assert report["seeds"] == [11, 12, 13, 14, 15]
    assert report["commits"]["change"]["dirty"] is True
    assert len(report["commits"]["parent"]["commit"]) == 40
    assert report["perfbench"]["same"] is False
    assert report["environment"]["nproc"] >= 1
    assert len(report["runs"]) == 10 and len(report["order"]) == 10
    failed = [r for r in report["runs"] if not r["ok"]]
    assert [(r["side"], r["seed"], r["metrics"]["peak_rss_mb"]) for r in failed] == [
        ("change", 15, 511)]
    summary = report["summary"]["prep-paper"]
    assert summary["failed"]["change"] == 1
    assert summary["metrics"]["peak_rss_mb"]["change_better"] == 3


def test_tree_digest_ignores_scratch_and_sees_edits(bp, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "vmbench").mkdir(parents=True)
        (root / "vmbench" / "x.py").write_text("x = 1\n")
    (b / "_work").mkdir()
    (b / "_work" / "junk").write_text("scratch")
    assert bp.tree_digest(a) == bp.tree_digest(b)
    (b / "vmbench" / "x.py").write_text("x = 2\n")
    assert bp.tree_digest(a) != bp.tree_digest(b)


def test_bitcheck_difference_is_flagged(bp, tmp_path, monkeypatch, capsys):
    """Bitcheck outputs that differ in one digest are both kept, ``same`` is
    false and standard error says so."""
    parent = ["tensor     prims 00ff", "cnn_lstm   c07   ee11"]
    change = ["tensor     prims 00ff", "cnn_lstm   c07   ee12"]
    report = _main_on_fake_repo(bp, tmp_path, monkeypatch,
                                fake_bitcheck({"parent": parent, "change": change}), pairs=1)
    bits = report["bitcheck"]
    assert (bits["same"], bits["parent"]["lines"], bits["change"]["lines"]) == (
        False, parent, change)
    assert "bitcheck.py gives different output" in capsys.readouterr().err


def test_one_cpu_difference_is_flagged(bp, tmp_path, monkeypatch, capsys):
    """A change whose bitcheck output moves when pinned to one CPU: both
    sides agree, ``same_one_cpu`` is false and standard error says so."""
    lines = ["tensor     prims 00ff", "cnn_lstm   c07   ee11"]
    report = _main_on_fake_repo(bp, tmp_path, monkeypatch, fake_bitcheck(
        {"parent": lines, "change": lines, "one_cpu": lines[:1] + ["cnn_lstm   c07   ee12"]}),
        pairs=1)
    bits = report["bitcheck"]
    assert (bits["same"], bits["same_one_cpu"]) == (True, False)
    assert bits["change_one_cpu"]["lines"][1].endswith("ee12")
    assert "pinned to one CPU" in capsys.readouterr().err


def test_one_cpu_run_pins_the_child_only(bp, tmp_path):
    """``bitcheck_run(..., one_cpu=True)`` runs its script on one CPU; the
    calling process keeps the CPUs it had."""
    before = os.sched_getaffinity(0)
    src = tmp_path / "side" / "src"
    src.mkdir(parents=True)
    script = tmp_path / "cpus.py"
    script.write_text("import os\nprint(len(os.sched_getaffinity(0)))\n")
    assert bp.bitcheck_run(script, src, one_cpu=True)["lines"] == ["1"]
    assert bp.bitcheck_run(script, src)["lines"] == [str(len(before))]
    assert os.sched_getaffinity(0) == before
