"""Tests for repro.devtools.codelint: the AST invariant linter.

Covers every rule with paired good/bad fixtures
(``tests/codelint_fixtures/``), the suppression syntax, the committed
baseline (no drift against a fresh run over ``src/``), the CLI exit
codes, the unified zone-lint/code-lint findings core, and — the
acceptance mutations — that reintroducing each historical bug pattern
(the PR 4 ``Name.__hash__`` cache, an unsorted set iteration into a
row, an untagged ``StudySpec`` field) produces a failing finding.
"""

import json
import os
import re
import shutil
import subprocess

import pytest

from repro.devtools import codelint
from repro.devtools.codelint import (
    Finding,
    ProjectRule,
    Severity,
    all_rules,
    lint_paths,
    lint_source,
    load_baseline,
    parse_source,
    partition,
    project_findings,
    project_scope_rules,
    run_lint,
)
from repro.devtools.codelint.baseline import BaselineError, write_baseline
from repro.devtools.codelint.cli import main as codelint_main
from repro.devtools.codelint.engine import _discover_consumers, iter_python_files

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "codelint_fixtures")
SRC = os.path.join(REPO_ROOT, "src")
BASELINE = os.path.join(REPO_ROOT, "codelint-baseline.json")

#: project-scope fixture tree → expected codes when linting the bad_*
#: tree as a whole (good_* trees must be clean).  Unlike FIXTURE_RULES
#: these are directories of modules: the rules under test need the
#: cross-file graph.
PROJECT_FIXTURES = {
    "det2": {"DET02"},
    "layer": {"LAYER01"},
    "dead": {"DEAD01"},
}

#: fixture directory → (module override, expected codes in bad_*.py)
FIXTURE_RULES = {
    "det": ("repro.simnet.fixture", {"DET01"}),
    "hash_cached": ("repro.dnscore.fixture", {"HASH01"}),
    "hash_builtin": ("repro.scanner.fixture", {"HASH02"}),
    "ord": ("repro.scanner.fixture", {"ORD01", "ORD02"}),
    "tag": ("repro.study", {"TAG01"}),
    "gc": ("repro.scanner.fixture", {"GC01"}),
    "fstr": ("repro.manage.fixture", {"FSTR01"}),
    "inv": ("repro.simnet.fixture", {"INV01"}),
    "name": ("repro.simnet.fixture", {"NAME01"}),
}


def lint_fixture(directory, filename, module=None):
    path = os.path.join(FIXTURES, directory, filename)
    if module is None:
        module = FIXTURE_RULES[directory][0]
    return lint_source(parse_source(path, module=module))


def fixture_files(directory, prefix):
    names = sorted(
        name for name in os.listdir(os.path.join(FIXTURES, directory))
        if name.startswith(prefix) and name.endswith(".py")
    )
    assert names, f"no {prefix}*.py fixture in {directory}"
    return names


class TestFixturePairs:
    """Every rule has a bad fixture that fires and a good twin that
    stays clean."""

    @pytest.mark.parametrize("directory", sorted(FIXTURE_RULES))
    def test_bad_fixture_fires_exactly_its_rule(self, directory):
        module, expected_codes = FIXTURE_RULES[directory]
        for filename in fixture_files(directory, "bad_"):
            findings = lint_fixture(directory, filename, module)
            assert findings, f"{directory}/{filename} produced no findings"
            assert {f.code for f in findings} == expected_codes

    @pytest.mark.parametrize("directory", sorted(FIXTURE_RULES))
    def test_good_fixture_is_clean(self, directory):
        module, _ = FIXTURE_RULES[directory]
        for filename in fixture_files(directory, "good_"):
            findings = lint_fixture(directory, filename, module)
            assert findings == [], f"{directory}/{filename}: {findings}"

    def test_det_counts_every_banned_call(self):
        findings = lint_fixture("det", "bad_ambient_randomness.py")
        # randrange, time.time, datetime.now, date.today, urandom, uuid4
        assert len(findings) == 6

    def test_det_flags_environment_reads(self):
        findings = lint_fixture("det", "bad_environment_read.py")
        # os.environ.get, os.getenv, and both through `from os import`
        assert len(findings) == 4
        assert all("environment read" in f.message for f in findings)

    def test_hash01_flags_both_shapes(self):
        findings = lint_fixture("hash_cached", "bad_pickled_cache.py")
        messages = " / ".join(f.message for f in findings)
        assert len(findings) == 2
        assert "no __getstate__" in messages  # default pickling
        assert "still ships it" in messages  # leaky __getstate__

    def test_det_rule_is_scoped_to_restricted_subsystems(self):
        # The same stochastic code outside simnet/resolver/scanner/
        # zones/dnscore (e.g. benchmarks, browser policy) is legal.
        findings = lint_fixture(
            "det", "bad_ambient_randomness.py", module="repro.browser.fixture"
        )
        assert findings == []

    def test_name01_flags_every_reference(self):
        findings = lint_fixture("name", "bad_unchecked_outside_dnscore.py")
        assert len(findings) == 2

    def test_name01_allows_dnscore(self):
        findings = lint_fixture(
            "name", "bad_unchecked_outside_dnscore.py", module="repro.dnscore.fixture"
        )
        assert findings == []

    def test_determinism_module_itself_is_exempt(self):
        findings = lint_fixture(
            "det", "bad_ambient_randomness.py", module="repro.simnet.determinism"
        )
        assert findings == []


class TestSuppressions:
    BAD_LINE = "for row in {'b', 'a'}:\n    print(row)\n"

    def lint_text(self, text, module="repro.scanner.fixture"):
        return lint_source(parse_source("fixture.py", text=text, module=module))

    def test_finding_without_suppression(self):
        assert {f.code for f in self.lint_text(self.BAD_LINE)} == {"ORD01"}

    def test_inline_disable_is_honored(self):
        text = "for row in {'b', 'a'}:  # codelint: disable=ORD01\n    print(row)\n"
        assert self.lint_text(text) == []

    def test_disable_is_case_insensitive_and_multi_code(self):
        text = (
            "import gc\n"
            "def f():\n"
            "    gc.disable()  # codelint: disable=gc01, ord01\n"
        )
        assert self.lint_text(text) == []

    def test_disable_only_covers_its_own_line(self):
        text = (
            "# codelint: disable=ORD01\n"
            "for row in {'b', 'a'}:\n"
            "    print(row)\n"
        )
        assert {f.code for f in self.lint_text(text)} == {"ORD01"}

    def test_unknown_code_is_rejected(self):
        text = "x = 1  # codelint: disable=NOPE99\n"
        findings = self.lint_text(text)
        assert [f.code for f in findings] == ["SUP01"]
        assert "NOPE99" in findings[0].message
        assert findings[0].line == 1

    def test_empty_disable_is_rejected(self):
        findings = self.lint_text("x = 1  # codelint: disable=\n")
        assert [f.code for f in findings] == ["SUP01"]

    def test_unknown_code_cannot_suppress_itself(self):
        text = "for row in {'b', 'a'}:  # codelint: disable=NOPE99\n    pass\n"
        assert {f.code for f in self.lint_text(text)} == {"ORD01", "SUP01"}

    def test_pattern_inside_string_is_not_a_suppression(self):
        text = (
            "doc = '# codelint: disable=ORD01'\n"
            "for row in {'b', 'a'}: print(row)\n"
        )
        # the string mentions the syntax on line 1; the finding on line 2
        # must survive and no SUP finding may appear
        assert {f.code for f in self.lint_text(text)} == {"ORD01"}


class TestBaseline:
    def test_committed_baseline_matches_fresh_run(self):
        """No drift: linting src/ produces exactly the committed
        baseline (which project policy keeps empty — true positives are
        fixed, not grandfathered)."""
        tolerated = load_baseline(BASELINE)
        findings = lint_paths([SRC])
        new, grandfathered = partition(findings, tolerated)
        assert new == [], f"src/ has non-baselined findings: {new}"
        assert len(grandfathered) == sum(tolerated.values()), (
            "stale baseline entries no longer match any finding"
        )

    def test_partition_counts_per_identity(self):
        finding = Finding("ORD01", Severity.ERROR, "a.py", "msg", line=3)
        twin = Finding("ORD01", Severity.ERROR, "a.py", "msg", line=9)
        tolerated = {finding.identity(): 1}
        new, grandfathered = partition([finding, twin], tolerated)
        # identity ignores line numbers; one is absorbed, the second is new
        assert len(grandfathered) == 1 and len(new) == 1

    def test_write_then_load_round_trip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        finding = Finding("GC01", Severity.ERROR, "x.py", "bare toggle", line=2)
        write_baseline(path, [finding, finding])
        assert load_baseline(path) == {finding.identity(): 2}

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "nonsense.json"
        path.write_text('{"magic": "something-else"}')
        with pytest.raises(BaselineError):
            load_baseline(str(path))


class TestMutations:
    """The acceptance mutations: each historical bug pattern, freshly
    reintroduced into today's source, must produce a failing finding."""

    def test_reintroducing_name_hash_cache_bug_fires(self):
        names_py = os.path.join(SRC, "repro", "dnscore", "names.py")
        with open(names_py) as handle:
            source = handle.read()
        # PR 4's fix was the __getstate__/__setstate__ pair; deleting it
        # restores default pickling of the cached hash.
        mutated = re.sub(
            r"    def __getstate__.*?    def __repr__",
            "    def __repr__",
            source,
            flags=re.DOTALL,
        )
        assert mutated != source, "mutation did not apply"
        clean = lint_source(parse_source(names_py, module="repro.dnscore.names"))
        assert [f for f in clean if f.code == "HASH01"] == []
        findings = lint_source(
            parse_source(names_py, text=mutated, module="repro.dnscore.names")
        )
        assert any(
            f.code == "HASH01" and "Name" in f.message for f in findings
        ), findings

    def test_unsorted_set_iteration_into_row_fires(self):
        text = (
            "def build_rows(snapshot, rows):\n"
            "    hostnames = set(snapshot)\n"
            "    for hostname in hostnames:\n"
            "        rows.append((hostname, snapshot[hostname]))\n"
        )
        findings = lint_source(
            parse_source("rows.py", text=text, module="repro.scanner.fixture")
        )
        assert [f.code for f in findings] == ["ORD01"]
        # and the sorted() version is clean
        fixed = text.replace("in hostnames:", "in sorted(hostnames):")
        assert lint_source(
            parse_source("rows.py", text=fixed, module="repro.scanner.fixture")
        ) == []

    def test_new_untagged_studyspec_field_fires(self):
        study_py = os.path.join(SRC, "repro", "study.py")
        with open(study_py) as handle:
            source = handle.read()
        mutated = source.replace(
            "    day_step: int = 7\n",
            "    day_step: int = 7\n    surprise_knob: int = 0\n",
        )
        assert mutated != source, "mutation did not apply"
        clean = lint_source(parse_source(study_py, module="repro.study"))
        assert [f for f in clean if f.code == "TAG01"] == []
        findings = lint_source(
            parse_source(study_py, text=mutated, module="repro.study")
        )
        assert any(
            f.code == "TAG01" and "surprise_knob" in f.message for f in findings
        ), findings


    def test_removing_answer_cache_invalidation_fires(self):
        """The paired-invalidation invariant: deleting world.py's
        answer_cache.set_scope(...) call next to a _zone_cache.clear()
        must trip INV01 — otherwise the fast path would serve answers
        rendered under a fault schedule that is no longer installed."""
        world_py = os.path.join(SRC, "repro", "simnet", "world.py")
        with open(world_py) as handle:
            source = handle.read()
        mutated = re.sub(
            r"\n *self\.answer_cache\.set_scope\([^()\n]*\)", "", source, count=1
        )
        assert mutated != source, "mutation did not apply"
        clean = lint_source(parse_source(world_py, module="repro.simnet.world"))
        assert [f for f in clean if f.code == "INV01"] == []
        findings = lint_source(
            parse_source(world_py, text=mutated, module="repro.simnet.world")
        )
        assert any(
            f.code == "INV01" and "_zone_cache.clear()" in f.message
            for f in findings
        ), findings

    def test_dropping_scenario_from_cache_tag_fires(self):
        """The chaos `scenario` field is dataset identity; silently
        dropping it from cache_tag() would alias faulted datasets onto
        fault-free cache entries. TAG01 must catch that mutation."""
        study_py = os.path.join(SRC, "repro", "study.py")
        with open(study_py) as handle:
            source = handle.read()
        mutated = source.replace(
            "        if self.scenario is not None and self.scenario:\n"
            '            tag_kwargs["scenario"] = self.scenario.canonical_tag()\n',
            "",
        )
        assert mutated != source, "mutation did not apply"
        clean = lint_source(parse_source(study_py, module="repro.study"))
        assert [f for f in clean if f.code == "TAG01"] == []
        findings = lint_source(
            parse_source(study_py, text=mutated, module="repro.study")
        )
        assert any(
            f.code == "TAG01" and "scenario" in f.message for f in findings
        ), findings


class TestEngine:
    def test_module_guess(self):
        from repro.devtools.codelint.engine import module_guess

        assert module_guess("src/repro/simnet/world.py") == "repro.simnet.world"
        assert module_guess("src/repro/dnscore/__init__.py") == "repro.dnscore"
        assert module_guess("/abs/path/src/repro/study.py") == "repro.study"
        assert module_guess("standalone.py") == "standalone"

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings = lint_paths([str(tmp_path)])
        assert [f.code for f in findings] == ["PARSE"]
        assert findings[0].severity is Severity.ERROR

    def test_rule_catalogue_is_documented(self):
        readme = os.path.join(
            SRC, "repro", "devtools", "codelint", "README.md"
        )
        with open(readme) as handle:
            text = handle.read()
        for rule in all_rules():
            assert rule.code in text, f"{rule.code} missing from README"
            assert rule.rationale, f"{rule.code} has no rationale"

    def test_finding_renderers(self):
        finding = Finding("DET01", Severity.ERROR, "a.py", "boom", line=4, col=2)
        zone_finding = Finding("ech-stale-key", Severity.WARNING, "shop.example.", "old key")
        text = codelint.render_text([zone_finding, finding])
        assert text.splitlines() == [
            "[error] DET01 a.py:4:2: boom",
            "[warning] ech-stale-key shop.example.: old key",
        ]
        payload = json.loads(codelint.render_json([finding], run="unit"))
        assert payload["run"] == "unit"
        assert payload["counts"]["error"] == 1
        assert payload["findings"][0]["line"] == 4


class TestCli:
    def test_clean_path_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert codelint_main([str(clean), "--no-baseline"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        bad = os.path.join(FIXTURES, "fstr", "bad_dropped_values.py")
        assert codelint_main([bad, "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "FSTR01" in out

    def test_json_format_and_artifact(self, tmp_path, capsys):
        bad = os.path.join(FIXTURES, "fstr", "bad_dropped_values.py")
        artifact = tmp_path / "findings.json"
        rc = codelint_main([
            bad, "--no-baseline", "--format", "json", "--json-out", str(artifact),
        ])
        assert rc == 1
        stdout_payload = json.loads(capsys.readouterr().out)
        file_payload = json.loads(artifact.read_text())
        assert stdout_payload == file_payload
        assert file_payload["new"] == 1
        assert file_payload["findings"][0]["code"] == "FSTR01"

    def test_write_baseline_then_gate(self, tmp_path, capsys):
        target = tmp_path / "legacy.py"
        shutil.copyfile(
            os.path.join(FIXTURES, "fstr", "bad_dropped_values.py"), target
        )
        baseline = tmp_path / "baseline.json"
        assert codelint_main([
            str(target), "--write-baseline", "--baseline", str(baseline),
        ]) == 0
        # grandfathered finding no longer fails the gate...
        assert codelint_main([
            str(target), "--baseline", str(baseline),
        ]) == 0
        # ...but a second occurrence of the same pattern does
        target.write_text(
            target.read_text()
            + "\n\ndef second():\n    return f'also dropped'\n"
        )
        assert codelint_main([str(target), "--baseline", str(baseline)]) == 1
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert codelint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DET01", "HASH01", "ORD01", "TAG01", "GC01", "FSTR01", "NAME01"):
            assert code in out

    def test_missing_path_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            codelint_main(["does/not/exist"])
        assert excinfo.value.code == 2

    def test_repro_scan_lint_code_subcommand(self, tmp_path, capsys):
        from repro.cli import scan_main

        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert scan_main(["lint-code", str(clean), "--no-baseline"]) == 0
        capsys.readouterr()


class TestZoneLintUnification:
    def test_manage_finding_is_the_shared_dataclass(self):
        from repro.manage import Finding as ZoneFinding, Severity as ZoneSeverity

        assert ZoneFinding is Finding
        assert ZoneSeverity is Severity

    def test_zone_findings_render_through_shared_renderers(self):
        from repro.dnscore import Name
        from repro.manage import lint_zone
        from repro.zones.zone import Zone

        zone = Zone(Name.from_text("shop.example."))
        zone.ensure_soa()
        zone.add_record("shop.example.", "A", "192.0.2.1")
        zone.add_record("shop.example.", "AAAA", "2001:db8::1")
        zone.add_record("shop.example.", "HTTPS", "1 . alpn=h2 ipv6hint=2001:db8::dead")
        findings = lint_zone(zone)
        assert [f.code for f in findings] == ["ipv6hint-mismatch"]
        # the f-string bug fix: the message carries both address lists
        assert "2001:db8::dead" in findings[0].message
        assert "2001:db8::1" in findings[0].message
        payload = json.loads(codelint.render_json(findings))
        assert payload["findings"][0]["where"] == "shop.example."
        assert "line" not in payload["findings"][0]

    def test_repro_scan_lint_zone_subcommand(self, capsys):
        from repro.cli import scan_main

        rc = scan_main([
            "lint-zone", "err.ee", "--population", "300",
            "--date", "2023-09-01",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 zone(s)" in out


def project_fixture_trees(group, prefix):
    root = os.path.join(FIXTURES, group)
    names = sorted(
        name for name in os.listdir(root)
        if name.startswith(prefix) and os.path.isdir(os.path.join(root, name))
    )
    assert names, f"no {prefix}* tree under {group}"
    return [os.path.join(root, name) for name in names]


class TestProjectFixturePairs:
    """Each project-scope rule has a bad fixture *tree* that fires and
    a good twin tree that stays clean, linted through the same
    two-scope ``lint_paths`` entry point CI uses."""

    @pytest.mark.parametrize("group", sorted(PROJECT_FIXTURES))
    def test_bad_tree_fires_exactly_its_rule(self, group):
        for tree in project_fixture_trees(group, "bad_"):
            findings = lint_paths([tree])
            assert findings, f"{tree} produced no findings"
            assert {f.code for f in findings} == PROJECT_FIXTURES[group], (
                tree, findings,
            )

    @pytest.mark.parametrize("group", sorted(PROJECT_FIXTURES))
    def test_good_tree_is_clean(self, group):
        for tree in project_fixture_trees(group, "good_"):
            assert lint_paths([tree]) == [], tree

    def test_det2_message_carries_the_full_chain(self):
        tree = os.path.join(FIXTURES, "det2", "bad_transitive")
        findings = [f for f in lint_paths([tree]) if f.code == "DET02"]
        assert len(findings) == 1
        message = findings[0].message
        assert (
            "simnet.simhelp._shape_timing -> reporting.utilmod._stamp "
            "-> reporting.utilmod._now_ms -> time.time()"
        ) in message

    def test_layer_cycle_reported_once_per_edge(self):
        tree = os.path.join(FIXTURES, "layer", "bad_cycle")
        findings = [f for f in lint_paths([tree]) if f.code == "LAYER01"]
        assert len(findings) == 2
        assert all("import cycle" in f.message for f in findings)

    def test_project_rules_are_registered(self):
        codes = {rule.code for rule in project_scope_rules()}
        assert codes == {"DET02", "LAYER01", "DEAD01"}
        assert all(
            isinstance(rule, ProjectRule) for rule in project_scope_rules()
        )
        assert {rule.code for rule in all_rules()} >= codes


class TestProjectMutations:
    """The acceptance mutations for the project scope: reintroduce each
    historical cross-module bug shape into today's source and prove the
    matching rule fires."""

    def test_upward_import_in_wire_fires_layer01(self):
        wire_py = os.path.join(SRC, "repro", "dnscore", "wire.py")
        with open(wire_py) as handle:
            source = handle.read()
        mutated = source + "\nfrom repro.scanner import pipeline as _probe\n"
        clean = project_findings([parse_source(wire_py)])
        assert [f for f in clean if f.code == "LAYER01"] == []
        findings = project_findings([parse_source(wire_py, text=mutated)])
        assert any(
            f.code == "LAYER01" and "repro.scanner" in f.message
            and "layering violation" in f.message
            for f in findings
        ), findings

    def test_simnet_helper_reaching_time_two_calls_deep_fires_det02(self):
        helper = parse_source(
            "simhelp.py",
            text=(
                "from repro.reporting.shaper import _shape\n\n"
                "def _jitter(values):\n"
                "    return [_shape(v) for v in values]\n"
            ),
            module="repro.simnet.simhelp",
        )
        shaper = parse_source(
            "shaper.py",
            text=(
                "import time\n\n"
                "def _shape(v):\n"
                "    return _scale(v)\n\n"
                "def _scale(v):\n"
                "    return v * time.time()\n"
            ),
            module="repro.reporting.shaper",
        )
        findings = project_findings([helper, shaper])
        det2 = [f for f in findings if f.code == "DET02"]
        assert len(det2) == 1, findings
        assert (
            "simnet.simhelp._jitter -> reporting.shaper._shape "
            "-> reporting.shaper._scale -> time.time()"
        ) in det2[0].message

    def test_new_orphan_public_function_fires_dead01(self):
        files = iter_python_files([SRC])
        timeline_py = os.path.join(SRC, "repro", "simnet", "timeline.py")
        # Assemble the name so this very test file (a DEAD01 *consumer*
        # whose string tokens count as references) never contains it.
        orphan = "orphaned" + "_probe" + "_fn"
        sources = []
        for path in files:
            if os.path.abspath(path) == os.path.abspath(timeline_py):
                with open(path) as handle:
                    text = handle.read()
                text += f"\n\ndef {orphan}():\n    return 99\n"
                sources.append(parse_source(path, text=text))
            else:
                sources.append(parse_source(path))
        consumers, texts = _discover_consumers(
            [SRC], {os.path.abspath(path) for path in files}
        )
        findings = project_findings(
            sources, consumers, extra_reference_texts=texts
        )
        assert any(
            f.code == "DEAD01" and orphan in f.message for f in findings
        ), [f for f in findings if f.code == "DEAD01"]


class TestProjectSuppressions:
    def test_src_carries_no_layer01_suppression(self):
        """Every import in src/ follows the layer order outright: no
        line silences LAYER01."""
        suppressed = []
        for path in iter_python_files([SRC]):
            with open(path) as handle:
                for lineno, line in enumerate(handle, 1):
                    match = re.search(r"codelint:\s*disable=([\w, -]*)", line)
                    if match and "LAYER01" in match.group(1):
                        suppressed.append(f"{path}:{lineno}")
        assert suppressed == []

    def test_project_finding_suppressible_on_its_line(self):
        text = (
            "from repro.scanner import runner  # codelint: disable=LAYER01\n"
        )
        src = parse_source("wiremod.py", text=text, module="repro.dnscore.wiremod")
        assert project_findings([src]) == []
        bare = parse_source(
            "wiremod.py",
            text="from repro.scanner import runner\n",
            module="repro.dnscore.wiremod",
        )
        assert [f.code for f in project_findings([bare])] == ["LAYER01"]


class TestProjectEngine:
    def test_run_lint_collects_stats(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("VALUE = 1\n")
        run = run_lint([str(tmp_path)])
        assert run.files == 1
        assert run.findings == []
        payload = run.stats_json()
        assert set(payload) == {"files", "rules"}
        for code in ("DET01", "DET02", "LAYER01", "DEAD01", "graph"):
            assert code in payload["rules"], code
            assert set(payload["rules"][code]) == {"seconds", "findings"}

    def test_dead01_is_silent_without_the_entry_module(self, tmp_path):
        # A narrow lint (one subsystem, no repro.cli) must not call
        # everything dead.
        src = parse_source(
            "lonely.py",
            text="def totally_unreferenced():\n    return 1\n",
            module="repro.simnet.lonely",
        )
        assert project_findings([src]) == []

    def test_full_tree_lints_clean_in_both_scopes(self):
        """The acceptance gate: today's src/ has no DET02/LAYER01/
        DEAD01 findings left (true positives were fixed or carry
        verified suppressions)."""
        findings = lint_paths([SRC])
        assert findings == [], findings


class TestCliProjectFlags:
    def test_stats_flag_and_artifact(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        stats_file = tmp_path / "stats.json"
        rc = codelint_main([
            str(clean), "--no-baseline", "--stats",
            "--stats-out", str(stats_file),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "codelint stats:" in out
        payload = json.loads(stats_file.read_text())
        assert payload["files"] == 1
        assert "DET02" in payload["rules"] and "DET01" in payload["rules"]

    def test_stats_included_in_json_report(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        rc = codelint_main([
            str(clean), "--no-baseline", "--stats", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "stats" in payload
        assert payload["stats"]["files"] == 1

    def test_changed_filters_to_changed_files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)

        def git(*args):
            subprocess.run(
                ["git", *args], check=True, capture_output=True, text=True,
            )

        git("init", "-q")
        git("config", "user.email", "lint@example.invalid")
        git("config", "user.name", "lint")
        (tmp_path / "old.py").write_text("def f():\n    return f'dropped'\n")
        git("add", "old.py")
        git("commit", "-qm", "seed")
        # the committed finding is filtered out when nothing changed
        assert codelint_main(["old.py", "--no-baseline", "--changed"]) == 0
        capsys.readouterr()
        # an untracked file with the same bug is reported; old.py is not
        (tmp_path / "new.py").write_text("def g():\n    return f'dropped'\n")
        rc = codelint_main([
            "old.py", "new.py", "--no-baseline", "--changed",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "new.py" in out and "old.py:" not in out

    def test_changed_outside_git_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "definitely-not-a-repo"))
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        rc = codelint_main([str(clean), "--no-baseline", "--changed"])
        assert rc == 2
        assert "--changed failed" in capsys.readouterr().err

    def test_list_rules_shows_project_scope(self, capsys):
        assert codelint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DET02", "LAYER01", "DEAD01"):
            assert code in out
        assert "project]" in out
