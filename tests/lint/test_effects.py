"""Unit tests for the effect engine (summary construction, propagation).

These exercise the dataflow layer directly — aliasing, augmented
assignment, self-method dispatch, cross-module propagation, obligation
classification — plus the two repo-level gates the
tentpole promises: zero EFF findings on ``src/``, and the
seeded-regression proof that stripping the drain-termination wake from
``Simulator._release_vc`` trips EFF002.
"""

import re
import shutil
from pathlib import Path

from repro.lint import run_lint
from repro.lint.effects import build_effect_index
from repro.lint.findings import format_text
from repro.lint.module import ModuleInfo

REPO_ROOT = Path(__file__).resolve().parents[2]


def index_of(*sources_and_names):
    modules = [
        ModuleInfo(f"{name.rsplit('.', 1)[-1]}.py", source, name)
        for source, name in sources_and_names
    ]
    return build_effect_index(modules)


def test_alias_writes_resolve_to_the_aliased_attribute():
    index = index_of(
        (
            "class C:\n"
            "    def park(self, pc):\n"
            "        waiters = pc.route_waiters = {}\n"
            "        waiters[self.key] = None\n"
            "        box = self.wake_box\n"
            "        box[0] -= 1\n",
            "repro.network.mod",
        )
    )
    summary = index.summary("repro.network.mod.C.park")
    writes = {(w.attr, w.kind) for w in summary.writes}
    # The chained assignment writes route_waiters; both the subscript
    # through the local alias and the box decrement land on the
    # underlying attributes, not the local names.
    assert ("route_waiters", "assign") in writes
    assert ("route_waiters", "subscript") in writes
    assert ("wake_box", "subscript") in writes


def test_augmented_assignment_direction_drives_obligations():
    index = index_of(
        (
            "class Lane:\n"
            "    def free(self):\n"
            "        self.free_mask |= 1\n"
            "    def take(self):\n"
            "        self.free_mask &= ~1\n",
            "repro.network.mod",
        )
    )
    (free_site,) = index.summary("repro.network.mod.Lane.free").writes
    assert (free_site.kind, free_site.op) == ("aug", "BitOr")
    assert free_site.obligation == "vc-release"
    (take_site,) = index.summary("repro.network.mod.Lane.take").writes
    assert (take_site.kind, take_site.op) == ("aug", "BitAnd")
    assert take_site.obligation is None


def test_module_const_aliases_classify_gp_promotion():
    index = index_of(
        (
            "from repro.network.types import GPState\n"
            "\n"
            "_G = GPState.GENERATE\n"
            "_P = GPState.PROPAGATE\n"
            "\n"
            "class Obs:\n"
            "    def promote(self, pc):\n"
            "        pc.gp = _G\n"
            "    def demote(self, pc):\n"
            "        pc.gp = _P\n",
            "repro.network.mod",
        )
    )
    (promote,) = index.summary("repro.network.mod.Obs.promote").writes
    assert promote.value_repr == "GPState.GENERATE"
    assert promote.obligation == "gp-promotion"
    (demote,) = index.summary("repro.network.mod.Obs.demote").writes
    assert demote.obligation is None


def test_self_method_dispatch_propagates_writes_and_wake():
    index = index_of(
        (
            "class Lane:\n"
            "    def release(self):\n"
            "        self.occupant = None\n"
            "        self._wake()\n"
            "    def _wake(self):\n"
            "        for m in self.waiters:\n"
            "            m.route_asleep = False\n",
            "repro.network.mod",
        )
    )
    release = index.summary("repro.network.mod.Lane.release")
    assert "repro.network.mod.Lane._wake" in release.calls
    assert not release.wakes  # no *direct* wake ...
    assert release.trans_wake  # ... but one is reachable
    assert set(release.trans_writes) == {"occupant", "route_asleep"}


def test_cross_module_propagation_records_the_origin():
    index = index_of(
        (
            "def drain(pc):\n"
            "    pc.active_since = 0\n",
            "repro.network.helper",
        ),
        (
            "from repro.network.helper import drain\n"
            "\n"
            "class C:\n"
            "    def run(self, pc):\n"
            "        drain(pc)\n",
            "repro.network.mod",
        ),
    )
    run = index.summary("repro.network.mod.C.run")
    origin = run.trans_writes["active_since"]
    assert origin[0] == "repro.network.helper"
    assert origin[1] == "repro.network.helper.drain"
    assert origin[2] == 2  # the write's own line in the helper module


def test_mutator_method_on_attribute_receiver_is_a_write():
    index = index_of(
        (
            "class C:\n"
            "    def clear(self, pc):\n"
            "        pc.route_waiters.clear()\n",
            "repro.network.mod",
        )
    )
    (site,) = index.summary("repro.network.mod.C.clear").writes
    assert (site.attr, site.kind) == ("route_waiters", "mutcall")


def test_constructors_have_empty_summaries():
    index = index_of(
        (
            "class C:\n"
            "    def __init__(self):\n"
            "        self.occupant = None\n",
            "repro.network.mod",
        )
    )
    init = index.summary("repro.network.mod.C.__init__")
    # __init__ runs before any waiter exists; its writes are
    # definitionally in-contract and carry no wake obligation.
    assert init.writes == []


# ----------------------------------------------------------------------
# Repo-level gates
# ----------------------------------------------------------------------
def test_src_tree_has_zero_effect_findings():
    result = run_lint([REPO_ROOT / "src" / "repro"])
    effect_findings = [f for f in result.findings if f.code.startswith("EFF")]
    assert effect_findings == [], format_text(effect_findings)


_WAKE = re.compile(
    r"\n        # A freed lane may let a parked header route on its next"
    r" attempt\.\n(?:.*\n)*? *self\.wake\(waiters\)\n",
)


def test_stripping_the_drain_fix_wake_trips_eff002(tmp_path):
    """Seeded regression: the analyzer catches the PR 2 bug class.

    ``VirtualChannel.release`` cannot see the parked waiters (the
    simulator owns them), so ``Simulator._release_vc`` discharges its
    wake obligation (``contracts.DEFERRED_WAKES``); removing that wake
    (the drain-termination fix) must surface as EFF002 on the
    release writes.
    """
    tree = tmp_path / "repro"
    shutil.copytree(REPO_ROOT / "src" / "repro", tree)
    files = [tree / "network" / "channel.py", tree / "network" / "simulator.py"]
    # The pristine pair stays clean: the wake is load-bearing.
    clean = run_lint(files)
    assert [f for f in clean.findings if f.code == "EFF002"] == []
    source = files[1].read_text()
    assert _WAKE.search(source), "release wake not found in simulator.py"
    files[1].write_text(_WAKE.sub("\n", source))
    result = run_lint(files)
    eff002 = [f for f in result.findings if f.code == "EFF002"]
    assert {f.message.split("'")[1] for f in eff002} == {
        "occupant",
        "free_mask",
    }, format_text(result.findings)
    assert all(f.path.endswith("channel.py") for f in eff002)
