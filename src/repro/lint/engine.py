"""The analysis driver: collect modules, parse once, run the checkers.

The unit of analysis is a :class:`SourceModule`: one parsed file plus
its dotted module name, derived from its path relative to the analysis
*root* (the directory containing the top-level ``repro`` package —
``<repo>/src`` for the real tree, a fixture directory in tests). Every
checker is a pure function ``SourceModule -> Iterable[Finding]``; the
driver parses each file exactly once and fans the tree out to all of
them, then filters ``# lint: allow(...)`` pragma'd lines.

Two phases, one pool. The *per-file* phase — parse, the four
per-module checkers, and per-module PDG construction
(:mod:`repro.lint.pdg`) — is embarrassingly parallel and fans out
over a ``multiprocessing`` pool when ``jobs > 1`` (the unit of work
is one file; results come back as plain data). The *whole-program*
phase — PDG linking (:mod:`repro.lint.linking`) and the source→sink
path queries that report every taint rule (:mod:`repro.lint.paths`)
— runs in the parent. Results are assembled in file order and
sorted, so the findings are byte-identical for any ``jobs`` value.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.lint.baseline import pragma_allows, scan_pragmas
from repro.lint.findings import Finding


@dataclass
class SourceModule:
    """One parsed source file under analysis."""

    path: Path           # absolute location on disk
    relpath: str         # posix path relative to the analysis root
    module: str          # dotted module name ("repro.core.node")
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    @property
    def package(self) -> str:
        """The top-level sub-package ("core" for repro.core.node)."""
        parts = self.module.split(".")
        return parts[1] if len(parts) > 1 else ""


def default_root() -> Path:
    """The analysis root of the installed tree: the directory holding
    the ``repro`` package (``<repo>/src`` in a source checkout)."""
    import repro

    return Path(repro.__file__).resolve().parent.parent


def _module_name(relpath: Path) -> str:
    parts = list(relpath.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _file_list(root: Path,
               paths: Optional[Sequence[Path]] = None) -> List[Path]:
    root = Path(root).resolve()
    if paths:
        files = []
        for path in (Path(p).resolve() for p in paths):
            files.extend(sorted(path.rglob("*.py"))
                         if path.is_dir() else [path])
        files.sort()
    else:
        files = sorted(root.rglob("*.py"))
    return [file for file in files if "__pycache__" not in file.parts]


def collect_modules(root: Path,
                    paths: Optional[Sequence[Path]] = None
                    ) -> List[SourceModule]:
    """Parse every ``*.py`` under *root* (or just *paths*).

    Files that fail to parse yield a module with an empty tree; the
    driver reports those as ``parse-error`` findings rather than
    aborting the run.
    """
    root = Path(root).resolve()
    modules: List[SourceModule] = []
    for file in _file_list(root, paths=paths):
        relpath = file.relative_to(root)
        source = file.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError as exc:
            tree = ast.Module(body=[], type_ignores=[])
            modules.append(SourceModule(
                path=file, relpath=relpath.as_posix(),
                module=_module_name(relpath), tree=tree,
                lines=[f"__parse_error__: {exc.msg} (line {exc.lineno})"]))
            continue
        modules.append(SourceModule(
            path=file, relpath=relpath.as_posix(),
            module=_module_name(relpath), tree=tree,
            lines=source.splitlines()))
    return modules


Checker = Callable[[SourceModule], Iterable[Finding]]


def default_checkers() -> List[Checker]:
    from repro.lint.determinism import check_determinism
    from repro.lint.enclave import check_enclave_boundary
    from repro.lint.layering import check_layering
    from repro.lint.taint import check_span_keys

    return [check_span_keys, check_enclave_boundary, check_determinism,
            check_layering]


#: One pool worker's result for one file: the pragma-filtered
#: per-module findings, the pragma table (the parent re-applies it to
#: interprocedural findings anchored in this file) and the module PDG
#: (None for parse errors).
_FileResult = Tuple[str, List[Finding], dict, Optional[object]]


def _analyze_file(work: Tuple[str, str]) -> _FileResult:
    """Pool unit of work: parse one file, run the per-module checkers,
    build its PDG. Top-level (picklable) by design; returns only plain
    data and Finding dataclasses."""
    from repro.lint.pdg import build_module_pdg

    root_str, file_str = work
    modules = collect_modules(Path(root_str), paths=[Path(file_str)])
    module = modules[0]
    if module.lines and module.lines[0].startswith("__parse_error__"):
        finding = Finding(
            path=module.relpath, line=0, rule="parse-error",
            message=module.lines[0].split(": ", 1)[1])
        return (module.relpath, [finding], {}, None)
    collected: List[Finding] = []
    for checker in default_checkers():
        collected.extend(checker(module))
    pragmas = scan_pragmas(module.lines)
    if pragmas:
        collected = [finding for finding in collected
                     if not pragma_allows(pragmas, finding)]
    return (module.relpath, collected, pragmas, build_module_pdg(module))


def run_lint(root: Path,
             paths: Optional[Sequence[Path]] = None,
             jobs: int = 1) -> List[Finding]:
    """Run all checkers over *root*; returns pragma-filtered findings.

    Besides the per-module checkers, every run builds the
    whole-program PDG and reports each source→sink flow it finds:
    direct ones under their sink's rule (``taint-print``,
    ``taint-wire``, ...), interprocedural and field-mediated ones as
    ``taint-interprocedural``/``taint-field-flow`` with witness
    paths. ``jobs > 1`` fans per-file analysis out over a process
    pool; output is byte-identical for any value.

    Baseline application is the caller's concern (the CLI and the CI
    gate both want to report grandfathered counts differently).
    """
    root = Path(root).resolve()
    work = [(str(root), str(file))
            for file in _file_list(root, paths=paths)]
    if jobs > 1 and len(work) > 1:
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            context = multiprocessing.get_context()
        with context.Pool(processes=jobs) as pool:
            results = pool.map(_analyze_file, work)
    else:
        results = [_analyze_file(item) for item in work]

    findings: List[Finding] = []
    pragma_tables = {}
    pdgs = []
    for relpath, collected, pragmas, pdg in results:
        findings.extend(collected)
        pragma_tables[relpath] = pragmas
        if pdg is not None:
            pdgs.append(pdg)

    from repro.lint.linking import link_program
    from repro.lint.paths import query_paths

    for finding in query_paths(link_program(pdgs)):
        pragmas = pragma_tables.get(finding.path, {})
        if pragmas and pragma_allows(pragmas, finding):
            continue
        findings.append(finding)
    return sorted(set(findings))
