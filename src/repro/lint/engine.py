"""The lint engine: files, pragmas, baseline, and rule running.

The engine is rule-agnostic.  It parses every file once into a
:class:`LintFile` (source lines, AST, import-alias map, allow
pragmas), hands the whole batch to each rule — rules may be purely
per-file or cross-file, like the store-token reachability closure —
and post-processes the raw findings:

* findings on a line carrying a matching allow pragma are suppressed
  (and counted, so drift stays visible);
* findings matching a committed baseline entry are dropped as
  grandfathered;
* malformed pragmas (unknown shape, missing reason) become findings
  themselves (rule id ``LINT-PRAGMA``) — a suppression that does not
  say *why* is a violation, not an exemption.

Pragma syntax (reason mandatory)::

    expr()  # repro-lint: allow[RULE-ID] reason text
    # repro-lint: allow[RULE-A,RULE-B] a standalone pragma covers the
    expr()  #                          line below it

Baseline entries are keyed by ``(path, rule, stripped line content)``
rather than line numbers, so unrelated edits above a grandfathered
finding do not invalidate the baseline.
"""

import ast
import json
import os
import pathlib
import re

__all__ = [
    "Finding",
    "LintFile",
    "LintReport",
    "Rule",
    "dotted_name",
    "lint_paths",
    "lint_sources",
    "load_baseline",
    "parse_source",
    "repo_root",
    "write_baseline",
]

#: Rule id for engine-level findings about the pragmas themselves.
PRAGMA_RULE_ID = "LINT-PRAGMA"
#: Rule id for files the engine cannot parse.
PARSE_RULE_ID = "LINT-PARSE"

_PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*(?P<rest>.*)$")
_ALLOW_RE = re.compile(
    r"^allow\[(?P<rules>[A-Za-z0-9_\-,\s]+)\]\s*(?P<reason>.*)$"
)


class Finding:
    """One rule violation at a file/line."""

    __slots__ = ("rule", "path", "line", "message")

    def __init__(self, rule, path, line, message):
        self.rule = str(rule)
        self.path = str(path)
        self.line = int(line)
        self.message = str(message)

    def sort_key(self):
        return (self.path, self.line, self.rule, self.message)

    def as_dict(self):
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message}

    def __repr__(self):
        return f"Finding({self.rule}, {self.path}:{self.line})"

    def __eq__(self, other):
        return isinstance(other, Finding) and \
            self.sort_key() == other.sort_key()

    def __hash__(self):
        return hash(self.sort_key())


class Rule:
    """Protocol for lint rules.

    Subclasses define ``rule_id``, ``description``, and ``check``;
    ``check`` receives the full list of :class:`LintFile` (cross-file
    rules need the whole batch) and yields :class:`Finding`.  Per-file
    convenience: override ``check_file`` instead.
    """

    rule_id = "RULE"
    description = ""

    def check(self, files):
        for lf in files:
            yield from self.check_file(lf)

    def check_file(self, lint_file):
        return ()


def dotted_name(node):
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _import_aliases(tree):
    """Map local names to canonical dotted prefixes.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from numpy import random as r`` -> ``{"r": "numpy.random"}``;
    ``from time import time`` -> ``{"time": "time.time"}`` (the local
    name shadows the module — resolution follows the binding).
    """
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and \
                not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


class LintFile:
    """One parsed source file plus lint-relevant derived state.

    Attributes:
        relpath: package-relative posix path (``repro/net/medium.py``)
            — what rules match scopes against and what the baseline
            records.
        display: the path to print in findings (as given by the
            caller, e.g. ``src/repro/net/medium.py``).
        text / lines / tree: the source, split lines, parsed AST.
        aliases: import-alias map from :func:`_import_aliases`.
        allow: ``{line_number: set(rule_ids)}`` from well-formed
            pragmas.
        pragma_findings: engine findings for malformed pragmas.
    """

    def __init__(self, relpath, text, display=None):
        self.relpath = str(relpath).replace(os.sep, "/")
        self.display = display or self.relpath
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text)
        self.aliases = _import_aliases(self.tree)
        self.allow, self.pragma_findings = self._scan_pragmas()

    def _scan_pragmas(self):
        allow = {}
        findings = []
        for lineno, line in enumerate(self.lines, start=1):
            match = _PRAGMA_RE.search(line)
            if match is None:
                continue
            body = _ALLOW_RE.match(match.group("rest").strip())
            if body is None:
                findings.append(Finding(
                    PRAGMA_RULE_ID, self.display, lineno,
                    "malformed repro-lint pragma; expected "
                    "'# repro-lint: allow[RULE-ID] reason'",
                ))
                continue
            rules = {r.strip().upper()
                     for r in body.group("rules").split(",") if r.strip()}
            reason = body.group("reason").strip()
            if not rules:
                findings.append(Finding(
                    PRAGMA_RULE_ID, self.display, lineno,
                    "repro-lint pragma names no rule ids",
                ))
                continue
            if not reason:
                findings.append(Finding(
                    PRAGMA_RULE_ID, self.display, lineno,
                    "repro-lint pragma must give a reason — a "
                    "suppression that does not say why is a violation",
                ))
                continue
            targets = [lineno]
            # A standalone comment line covers the next line too.
            if line.strip().startswith("#"):
                targets.append(lineno + 1)
            for target in targets:
                allow.setdefault(target, set()).update(rules)
        return allow, findings

    def allows(self, lineno, rule_id):
        return rule_id.upper() in self.allow.get(lineno, ())

    def resolve(self, node):
        """Canonical dotted name of a call target, through aliases.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` under ``import numpy as np``;
        ``datetime.now`` resolves to ``datetime.datetime.now`` under
        ``from datetime import datetime``.  ``None`` when the chain is
        not rooted at an imported (or builtin) name.
        """
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return dotted  # builtins / module-local names stay as-is
        return f"{target}.{rest}" if rest else target


class LintReport:
    """Outcome of one lint run."""

    def __init__(self, findings, baselined=0, suppressed=0, files=0,
                 parse_failures=()):
        self.findings = sorted(findings, key=Finding.sort_key)
        self.baselined = int(baselined)
        self.suppressed = int(suppressed)
        self.files = int(files)
        self.parse_failures = list(parse_failures)

    @property
    def clean(self):
        return not self.findings

    def counts_by_rule(self):
        counts = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def as_dict(self):
        return {
            "clean": self.clean,
            "files": self.files,
            "baselined": self.baselined,
            "suppressed": self.suppressed,
            "counts": self.counts_by_rule(),
            "findings": [f.as_dict() for f in self.findings],
        }


def parse_source(relpath, text, display=None):
    """A :class:`LintFile`, or a parse-error :class:`Finding`."""
    try:
        return LintFile(relpath, text, display=display)
    except SyntaxError as exc:
        return Finding(PARSE_RULE_ID, display or relpath,
                       exc.lineno or 1, f"file does not parse: {exc.msg}")


def _finding_line_content(finding, files_by_display):
    lf = files_by_display.get(finding.path)
    if lf is None or not (1 <= finding.line <= len(lf.lines)):
        return ""
    return lf.lines[finding.line - 1].strip()


def load_baseline(path):
    """The baseline as a suppression multiset ``{key: count}``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return {}
    except (OSError, ValueError) as exc:
        raise ValueError(f"unreadable baseline {path}: {exc}") from exc
    budget = {}
    for entry in data.get("entries", ()):
        key = (entry["path"], entry["rule"], entry["line_content"])
        budget[key] = budget.get(key, 0) + int(entry.get("count", 1))
    return budget


def write_baseline(path, findings, files_by_display):
    """Persist *findings* as the new grandfathered baseline."""
    counted = {}
    for finding in findings:
        key = (finding.path, finding.rule,
               _finding_line_content(finding, files_by_display))
        counted[key] = counted.get(key, 0) + 1
    entries = [
        {"path": p, "rule": r, "line_content": c, "count": n}
        for (p, r, c), n in sorted(counted.items())
    ]
    payload = {"version": 1, "entries": entries}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run(files, parse_failures, rules, baseline):
    raw = []
    for lf in files:
        raw.extend(lf.pragma_findings)
    for rule in rules:
        raw.extend(rule.check(files))
    raw.extend(parse_failures)

    files_by_display = {lf.display: lf for lf in files}
    suppressed = 0
    kept = []
    for finding in raw:
        lf = files_by_display.get(finding.path)
        if finding.rule != PRAGMA_RULE_ID and lf is not None and \
                lf.allows(finding.line, finding.rule):
            suppressed += 1
            continue
        kept.append(finding)

    baselined = 0
    if baseline:
        budget = dict(baseline)
        remaining = []
        for finding in sorted(kept, key=Finding.sort_key):
            key = (finding.path, finding.rule,
                   _finding_line_content(finding, files_by_display))
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                baselined += 1
            else:
                remaining.append(finding)
        kept = remaining

    report = LintReport(kept, baselined=baselined, suppressed=suppressed,
                        files=len(files), parse_failures=parse_failures)
    report._files_by_display = files_by_display
    return report


def lint_sources(sources, rules=None, baseline=None):
    """Lint in-memory sources: ``{relpath: source_text}``.

    The unit-test entry point — rules see exactly the same
    :class:`LintFile` surface as on-disk runs.
    """
    if rules is None:
        from repro.lint.rules import ALL_RULES
        rules = [cls() for cls in ALL_RULES]
    files, failures = [], []
    for relpath in sorted(sources):
        parsed = parse_source(relpath, sources[relpath])
        if isinstance(parsed, Finding):
            failures.append(parsed)
        else:
            files.append(parsed)
    return _run(files, failures, rules, baseline or {})


def repo_root():
    """The repository root (``src/repro/lint`` -> three levels up)."""
    return pathlib.Path(__file__).resolve().parents[3]


def default_scan_root():
    """The package source tree ``src/repro`` scanned by default."""
    return pathlib.Path(__file__).resolve().parents[1]


def iter_python_files(root):
    root = pathlib.Path(root)
    if root.is_file():
        yield root
        return
    for path in sorted(root.rglob("*.py")):
        yield path


def lint_paths(paths=None, rules=None, baseline=None):
    """Lint on-disk paths (defaults to the ``src/repro`` tree).

    *baseline* is a suppression multiset from :func:`load_baseline`
    (``None``/empty disables grandfathering).  Returns a
    :class:`LintReport`.
    """
    if rules is None:
        from repro.lint.rules import ALL_RULES
        rules = [cls() for cls in ALL_RULES]
    scan_root = default_scan_root()
    src_root = scan_root.parent
    roots = [pathlib.Path(p) for p in paths] if paths else [scan_root]
    files, failures = [], []
    seen = set()
    for root in roots:
        for path in iter_python_files(root):
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            try:
                rel = resolved.relative_to(src_root).as_posix()
            except ValueError:
                rel = resolved.name
            try:
                display = resolved.relative_to(repo_root()).as_posix()
            except ValueError:
                display = str(path)
            text = resolved.read_text(encoding="utf-8")
            parsed = parse_source(rel, text, display=display)
            if isinstance(parsed, Finding):
                failures.append(parsed)
            else:
                files.append(parsed)
    return _run(files, failures, rules, baseline or {})
