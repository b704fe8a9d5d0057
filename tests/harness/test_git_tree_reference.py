"""Tests for the git-tree reference helper the benchmarks measure with.

``benchmarks/_git_tree.py`` serves simulations from a pinned commit's
``src/`` in a child process.  The engine bench's speedups are only
meaningful if a reference tree simulates exactly what the working tree
does, if a missing tree fails loudly rather than dropping a side, and if
no child outlives the bench.
"""

import importlib.util
import os
from pathlib import Path

import pytest

_HELPER_PATH = (Path(__file__).resolve().parents[2]
                / "benchmarks" / "_git_tree.py")
_spec = importlib.util.spec_from_file_location("_git_tree", _HELPER_PATH)
git_tree = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(git_tree)

#: The growth seed, the engine bench's oldest reference.
SEED_SHA = "b172bd5278a2"

RUN = ("HS.MM", 0.05, 2, 2)  # pair, scale, SMs, warps per SM


def _gone(pid):
    """True once ``pid`` has exited and been reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_working_tree_matches_the_seed_tree():
    with git_tree.TreeChild() as working, git_tree.TreeChild(SEED_SHA) as seed:
        replies = {"working": working.run(*RUN), "seed": seed.run(*RUN)}
    assert replies["working"]["events_fired"] > 0
    for field in ("events_fired", "total_cycles"):
        assert replies["working"][field] == replies["seed"][field]
    shared = replies["seed"]["stats"].keys() & replies["working"]["stats"]
    assert shared == replies["seed"]["stats"].keys()
    for key in shared:
        assert replies["working"]["stats"][key] == replies["seed"]["stats"][key]
    git_tree.check_identity("HS.MM", replies, working="working")


def test_unknown_sha_exits_naming_it():
    sha = "0123456789abcdef0123456789abcdef01234567"
    with pytest.raises(SystemExit) as excinfo:
        git_tree.TreeChild(sha)
    # A string exit code makes the interpreter exit with status 1.
    assert isinstance(excinfo.value.code, str)
    assert sha in excinfo.value.code


def test_close_leaves_no_child_even_when_the_identity_check_fails():
    pids = []
    with pytest.raises(SystemExit, match="total_cycles"):
        with git_tree.TreeChild() as first, git_tree.TreeChild() as second:
            pids = [first.pid, second.pid]
            replies = {"first": first.run(*RUN), "second": second.run(*RUN)}
            replies["second"]["total_cycles"] += 1
            git_tree.check_identity("HS.MM", replies, working="first")
    assert len(pids) == 2 and all(_gone(pid) for pid in pids)


def test_identity_check_rejects_a_changed_or_missing_stats_key():
    reply = {"events_fired": 5, "total_cycles": 9, "stats": {"a": 1, "b": 2}}
    newer = dict(reply, stats={"a": 1, "b": 2, "c": 3})
    git_tree.check_identity("x", {"new": newer, "old": reply}, working="new")
    for stats in ({"a": 1, "b": 3, "c": 3}, {"a": 1, "c": 3}):
        with pytest.raises(SystemExit, match=r"e\.g\. b$"):
            git_tree.check_identity(
                "x", {"new": dict(reply, stats=stats), "old": reply},
                working="new")
