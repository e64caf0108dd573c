"""Self-hosting gate: the shipped tree passes its own linter.

This is the tier-1 teeth of the static-analysis subsystem: deleting a
``dtype=np.int64`` pin, adding ``np.zeros(num_nodes)`` to counts-tier
code, or forgetting a ``from_dict`` fails this test (and the reprolint
CI job) without running a single simulation.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.analysis.lint import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The trees reprolint gates in CI.  ``src/`` is located through the
#: installed package so the test also works from an installed checkout.
SRC_TREE = Path(repro.__file__).resolve().parent


def _lint_paths():
    paths = [str(SRC_TREE)]
    for extra in ("examples", "benchmarks"):
        tree = REPO_ROOT / extra
        if tree.is_dir():
            paths.append(str(tree))
    return paths


def test_shipped_tree_has_zero_findings():
    findings, files_scanned = run_lint(_lint_paths())
    assert files_scanned > 0
    assert findings == [], "\n" + "\n".join(
        finding.format_text() for finding in findings
    )


def test_every_rule_exercised_by_fixtures():
    """Every registered rule has at least one violating fixture — a rule
    nothing can trigger is dead weight (or silently broken)."""
    from repro.analysis.lint import rule_ids

    fixtures = Path(__file__).parent / "lint_fixtures"
    findings, _ = run_lint([str(fixtures)])
    triggered = {finding.rule for finding in findings}
    assert triggered == set(rule_ids())


@pytest.mark.parametrize("rule_id", ["no-global-rng", "int64-dtype-pin"])
def test_self_lint_per_rule_select(rule_id):
    """--select'ed runs over src/ are clean too (CI uses the full run;
    this pins the select path against regressions)."""
    findings, _ = run_lint([str(SRC_TREE)], select=[rule_id])
    assert findings == []


#: Counts-tier definitions outside the module manifest, reached only
#: through their ``# reprolint: counts-tier`` marker: the merged sweep
#: loop and one method of each per-rule counts-dynamics class.
MARKED_COUNTS_TIER_DEFINITIONS = [
    ("dynamics/base.py", "_run_merged_counts_group"),
    ("dynamics/voter.py", "EnsembleCountsVoterDynamics.step"),
    ("dynamics/h_majority.py", "EnsembleCountsHMajorityDynamics.step"),
    ("dynamics/h_majority.py", "EnsembleCountsThreeMajorityDynamics.__init__"),
    ("dynamics/undecided_state.py", "EnsembleCountsUndecidedStateDynamics.step"),
    ("dynamics/median_rule.py", "EnsembleCountsMedianRuleDynamics.step"),
    (
        "dynamics/approximate_consensus.py",
        "EnsembleCountsApproximateConsensusDynamics.step",
    ),
]


def _find_definition(tree, qualified_name):
    node = tree
    for part in qualified_name.split("."):
        node = next(
            child
            for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.ClassDef))
            and child.name == part
        )
    return node


@pytest.mark.parametrize(
    "module, qualified_name",
    MARKED_COUNTS_TIER_DEFINITIONS,
    ids=[name for _, name in MARKED_COUNTS_TIER_DEFINITIONS],
)
def test_counts_tier_marker_flags_an_injected_n_sized_array(
    tmp_path, module, qualified_name
):
    """An ``np.zeros(num_nodes)`` injected at the top of the definition
    is flagged, so the marker really puts it in the rule's scope."""
    source = (SRC_TREE / module).read_text()
    tree = ast.parse(source)
    first = _find_definition(tree, qualified_name).body[0]
    last_import = [
        node for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ][-1]
    lines = source.splitlines(keepends=True)
    lines.insert(
        first.lineno - 1, " " * first.col_offset + "np.zeros(num_nodes)\n"
    )
    # Not every module imports numpy; the probe brings its own import.
    lines.insert(last_import.end_lineno, "import numpy as np\n")
    probe_line = first.lineno + 1
    mutated = tmp_path / Path(module).name
    mutated.write_text("".join(lines))

    findings, _ = run_lint([str(mutated)], select=["counts-tier-n-free"])
    assert [(finding.rule, finding.line) for finding in findings] == [
        ("counts-tier-n-free", probe_line)
    ]
