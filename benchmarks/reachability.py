"""Reachability pass: every ``src/repro`` function is entered or kept for a reason.

Runs the package's entry points under one trace hook that records every code
object entered:

1. every registered scenario, checked against its ``expect`` contract
   and rendered the way the benchmarks stage renders it (the table and
   ``canonical_result_json``);
2. every ``python -m repro`` invocation in ``.github/workflows/ci.yml``,
   in-process, with ``--dump-dir`` pointed at a temporary directory;
3. every script in ``examples/``;
4. each ``bench`` workload's small copy, untraced and then traced.

It then walks the AST of ``src/repro`` for every ``def`` (nested ones
included) and lists those never entered.  A deleted name can outlive its
definition in a branch no entry point takes, so it also checks names
statically: every module-global name a ``src/repro`` scope reads must be
bound at module level or be a builtin (stdlib :mod:`symtable`), every
name a function-local ``from … import …`` asks for must exist in its
module, and every attribute read off a module alias (``alias.name``,
where *alias* is bound in the scope that resolves it, by :mod:`symtable`,
to a ``repro`` module) must be a module-level binding or a submodule of
that module, as must every name a module lists in its ``__all__``.  Only
``obj.method`` lookups on other objects are still uncovered.

The exit code is 1 when an unentered function is missing from
:data:`KEPT`, when a :data:`KEPT` entry was entered or is no longer
defined, when a name resolves nowhere, or when an entry point fails.

Run:  python benchmarks/reachability.py   (about 2 minutes on 2 vCPU;
writes ``bench/out/reachability.json`` and nothing else in the repo)
"""

from __future__ import annotations

import ast
import builtins
import contextlib
import importlib
import importlib.util
import io
import json
import re
import runpy
import shlex
import symtable
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
PACKAGE = SOURCE / "repro"
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
OUT = ROOT / "bench" / "out" / "reachability.json"

#: ``module:qualname`` -> why the function stays although no entry point enters it.
KEPT: dict[str, str] = {
    # Abstract bases: every concrete subclass overrides these.
    "repro.attacks.base:Attack.run": "abstract; each attack overrides it",
    "repro.bridging.base:BridgingScheme.upload": "abstract; each bridging scheme overrides it",
    "repro.bridging.base:BridgingScheme.download": "abstract; each bridging scheme overrides it",
    "repro.bridging.base:BridgingScheme.dispute": "abstract; each bridging scheme overrides it",
    "repro.net.node:Node.on_message": "abstract; every protocol role overrides it",
    "repro.net.adversary:Adversary.on_intercept": "abstract; each adversary overrides it",
    "repro.obs.anomaly:Detector.sample": "abstract; each detector overrides it",
    "repro.replication.store:ReplicaAdapter.blobs": "abstract; each platform adapter overrides it",
    "repro.replication.store:ReplicaAdapter.put": "abstract; each platform adapter overrides it",
    "repro.replication.store:ReplicaAdapter.get": "abstract; each platform adapter overrides it",
    "repro.core.party:TpnrParty._wipe_role_state":
        "the crash hook's no-op default; every role overrides it",
    # Fault and timeout handlers: they run only when their fault fires.
    "repro.core.client:TpnrClient._on_abort_timeout": "Abort timeout handler (TTP silent)",
    "repro.core.ttp:TrustedThirdParty.reopen_resolve": "Resolve timeout handler (provider silent)",
    "repro.crypto.pki:CertificateAuthority.revoke": "CertificateAuthority.validate checks revocation",
    "repro.replication.verify:ForkConsistencyVerifier.check_missing":
        "a read probing a replica that lacks the object; no workload's key ranks one first",
    # Paper mechanisms and oracles.
    "repro.core.arbitrator:Arbitrator.rule_on_upload_content":
        "the upload-content dispute; bench/tracing.py binds it by name",
    "repro.core.confidential:open_payload": "the recipient side of the paper's section 2.4 sharing path",
    "repro.net.securechannel:establish_session": "one-call SSL-like handshake of the channel baseline",
    "repro.storage.s3like:S3LikeService._run_export": "paper section 2.4 AWS export (MD5_2 laundering)",
    "repro.storage.blobstore:BlobStore.list_keys": "the export job lists the bucket",
    "repro.storage.shipping:StorageDevice.wipe": "the export job wipes the device it fills",
    "repro.crypto.chacha20:chacha20_xor":
        "oracle of chacha20_np; bench/tracing.py binds it by name",
    "repro.crypto.chacha20:chacha20_keystream": "part of the chacha20_np oracle",
    "repro.crypto.chacha20:chacha20_block": "part of the chacha20_np oracle",
    "repro.crypto.chacha20:_quarter_round": "part of the chacha20_np oracle",
    "repro.crypto.primes:generate_safe_prime":
        "oracle that re-derives the precomputed DH primes (tests/crypto/test_dh.py)",
    "repro.crypto.primes:generate_prime":
        "the random search of generate_safe_prime and of the tests' hand-built two-prime keys",
    "repro.scenarios.seeds:derive_seed": "the PT-002 derivation behind repetition_seed",
    # Live API that no entry point happens to call with the data it serves.
    "repro.obs.sketch:QuantileSketch.snapshot":
        "MetricsRegistry.snapshot's row for a sketch; no entry point exports a registry holding one",
    "repro.obs.sketch:QuantileSketch.from_snapshot":
        "the exporters rebuild a sketch from that row to print its quantiles",
    # The `repro scenario run --seed` root-seed override.
    "repro.scenarios.registry:RegisteredScenario.reseeded": "`repro scenario run --seed`",
    "repro.scenarios.spec:ScenarioSpec.with_overrides": "`repro scenario run --seed`",
}


#: Names every module namespace holds without binding them.
MODULE_DUNDERS = frozenset({"__name__", "__file__", "__doc__", "__spec__", "__loader__",
                            "__package__", "__path__", "__builtins__"})


def _modules():
    """``(module name, path, source)`` of every ``src/repro`` module."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SOURCE).with_suffix("").parts)
        yield module.removesuffix(".__init__"), path, path.read_text(encoding="utf-8")


def defined_functions() -> dict[str, tuple[str, int, int]]:
    """``module:qualname`` -> (file, first line, last line) for every ``def``."""
    found = {}
    for module, path, source in _modules():

        def walk(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    found[f"{module}:{qualname}"] = (str(path), child.lineno, child.end_lineno)
                    walk(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(source), "")
    return found


def _scopes(table: symtable.SymbolTable):
    yield table
    for child in table.get_children():
        yield from _scopes(child)


def module_globals(path: Path, source: str) -> tuple[set[str], set[str]]:
    """``(bound, read)``: the names *source* binds at module level (a
    ``global`` assignment in a function included), and the module-global
    names any of its scopes reads."""
    scopes = list(_scopes(symtable.symtable(source, str(path), "exec")))
    bound = {sym.get_name() for sym in scopes[0].get_symbols()
             if sym.is_assigned() or sym.is_imported() or sym.is_namespace()}
    bound.update(sym.get_name() for scope in scopes[1:] for sym in scope.get_symbols()
                 if sym.is_declared_global() and sym.is_assigned())
    read = {sym.get_name() for scope in scopes for sym in scope.get_symbols()
            if sym.is_global() and sym.is_referenced()}
    return bound, read


def exported_names(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for every string a module-level ``__all__``
    assignment (``=``, ``+=`` or annotated) lists."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            found.extend((item.lineno, item.value) for item in ast.walk(node.value)
                         if isinstance(item, ast.Constant) and isinstance(item.value, str))
    return found


def lazy_imports(source: str) -> set[ast.ImportFrom]:
    """Every ``from … import …`` inside a function of *source*."""
    return {node for func in ast.walk(ast.parse(source))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func) if isinstance(node, ast.ImportFrom)}


#: The scope-opening expressions :mod:`symtable` names by kind.
_EXPRESSION_SCOPES = {ast.Lambda: "lambda", ast.GeneratorExp: "genexpr", ast.ListComp: "listcomp",
                      ast.SetComp: "setcomp", ast.DictComp: "dictcomp"}


def alias_reads(path: Path, source: str):
    """``(top, imports, reads)`` of one module, scope by scope (stdlib :mod:`symtable`).

    *top* is the module scope's table id.  *imports* maps a scope's
    table id to ``{bound name: [(kind, module, name)]}`` for every
    ``import``/``from … import`` in that scope, with relative targets
    left unresolved (``level`` dots kept).  *reads* is
    ``(binding table, name, attr, line)`` for every ``name.attr`` load,
    where the binding table is the scope the name resolves to: the
    reading scope itself, the module, or the enclosing function that
    binds a free name.
    """
    top = symtable.symtable(source, str(path), "exec")
    imports: dict[int, dict[str, list[tuple]]] = {}
    reads = []
    used: set[int] = set()

    def inner(table, node):
        name = _EXPRESSION_SCOPES.get(type(node)) or node.name
        for child in table.get_children():
            if (child.get_name(), child.get_lineno()) == (name, node.lineno) and child.get_id() not in used:
                used.add(child.get_id())
                return child
        raise AssertionError(f"{path}:{node.lineno}: no symbol table for {name}")

    def binding(table, chain, name):
        try:
            symbol = table.lookup(name)
        except KeyError:  # an annotation left unevaluated
            return None
        if symbol.is_global():  # a builtin when the module binds nothing
            return top if name in top.get_identifiers() else None
        if symbol.is_local():
            return table
        for outer in reversed(chain):
            if outer.get_type() == "function" and name in outer.get_identifiers() \
                    and outer.lookup(name).is_local():
                return outer
        return None

    def visit(node, table, chain) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            outside = [*getattr(node, "decorator_list", ()), *node.args.defaults,
                       *(d for d in node.args.kw_defaults if d is not None)]
            body = node.body if isinstance(node.body, list) else [node.body]
        elif isinstance(node, ast.ClassDef):
            outside = [*node.decorator_list, *node.bases, *node.keywords]
            body = node.body
        elif isinstance(node, tuple(_EXPRESSION_SCOPES)):
            first, *rest = node.generators
            outside = [first.iter]
            body = [first.target, *first.ifs, *rest,
                    *(getattr(node, f) for f in ("elt", "key", "value") if hasattr(node, f))]
        else:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = imports.setdefault(table.get_id(), {})
                for alias in node.names:
                    if isinstance(node, ast.Import):
                        entry = ("import", alias.name if alias.asname else alias.name.split(".")[0], "")
                    else:
                        entry = ("from", "." * node.level + (node.module or ""), alias.name)
                    bound.setdefault(alias.asname or alias.name.split(".")[0], []).append(entry)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and isinstance(node.ctx, ast.Load)):
                where = binding(table, chain, node.value.id)
                if where is not None:
                    reads.append((where, node.value.id, node.attr, node.lineno))
            for child in ast.iter_child_nodes(node):
                visit(child, table, chain)
            return
        for child in outside:
            visit(child, table, chain)
        scope = inner(table, node)
        for child in body:
            visit(child, scope, [*chain, table])

    visit(ast.parse(source), top, [])
    return top.get_id(), imports, reads


def unresolved_names() -> list[str]:
    """``path: name`` for every name under ``src/repro`` that resolves nowhere.

    Static, so it imports no ``repro`` module and can run before the
    entry points: a ``repro`` import target's names are its module-level
    bindings and submodules; a stdlib target is imported and probed.
    """
    sources = {module: (path, source) for module, path, source in _modules()}
    scanned = {module: module_globals(path, source) for module, (path, source) in sources.items()}
    aliases = {module: alias_reads(path, source) for module, (path, source) in sources.items()}
    packages = {module: module if path.name == "__init__.py" else module.rpartition(".")[0]
                for module, (path, _) in sources.items()}
    known = MODULE_DUNDERS | set(dir(builtins))

    def bound_module(module: str, entry: tuple) -> str | None:
        """The ``repro`` module an import entry of *module* binds, if any."""
        kind, name, member = entry
        if kind == "import":
            return name if name in sources else None
        origin = importlib.util.resolve_name(name, packages[module])
        submodule = f"{origin}.{member}"
        if submodule not in sources:
            return None
        if origin == module:  # ``from . import member`` in the package itself
            return submodule
        # The package's own binding of that name, if it has one, must be
        # the submodule too.
        top, imports, _ = aliases[origin]
        own = imports.get(top, {}).get(member)
        if own is None:
            return None if member in scanned[origin][0] else submodule
        return submodule if all(bound_module(origin, e) == submodule for e in own) else None

    found = []
    for module, (path, source) in sources.items():
        where = path.relative_to(ROOT)
        bound, read = scanned[module]
        found.extend(f"{where}: global {name}" for name in sorted(read - bound - known))
        found.extend(f"{where}:{line}: __all__ {name}" for line, name in exported_names(source)
                     if name not in bound and f"{module}.{name}" not in sources)
        _, imports, reads = aliases[module]
        for table, name, attr, line in reads:
            symbol = table.lookup(name)
            if not symbol.is_imported() or symbol.is_assigned() or symbol.is_parameter():
                continue
            targets = {bound_module(module, e) for e in imports.get(table.get_id(), {}).get(name, ())}
            if len(targets) != 1 or None in targets:
                continue
            (alias_of,) = targets
            if attr not in scanned[alias_of][0] | MODULE_DUNDERS and f"{alias_of}.{attr}" not in sources:
                found.append(f"{where}:{line}: attribute {name}.{attr} ({alias_of})")
        package = packages[module]
        for node in sorted(lazy_imports(source), key=lambda node: node.lineno):
            target = importlib.util.resolve_name("." * node.level + (node.module or ""), package)
            for alias in node.names:
                if target in scanned:
                    ok = alias.name in scanned[target][0] or f"{target}.{alias.name}" in sources
                else:
                    ok = hasattr(importlib.import_module(target), alias.name)
                if not ok:
                    found.append(f"{where}:{node.lineno}: lazy import {target}.{alias.name}")
    return found


def run_scenarios() -> None:
    from repro.analysis.report import render_table
    from repro.scenarios import SCENARIOS, canonical_result_json

    SCENARIOS.ids()  # the stage's test ids
    for scenario in SCENARIOS:
        result = scenario.run()
        broken = scenario.check(result)
        if broken:
            raise AssertionError(f"scenario {scenario.scenario_id} breaks its expect contract: {broken}")
        render_table(result.headers, result.rows, title=result.title)
        canonical_result_json(result)


def ci_invocations() -> list[list[str]]:
    """The argument lists of every ``python -m repro`` line in the CI workflow."""
    lines = CI_WORKFLOW.read_text(encoding="utf-8").splitlines()
    return [shlex.split(m.group(1).split(">")[0])
            for m in (re.search(r"python -m repro (.*)$", line) for line in lines) if m]


def run_cli(scratch: Path) -> None:
    from repro.cli import main

    for index, argv in enumerate(ci_invocations()):
        if "--dump-dir" in argv:
            at = argv.index("--dump-dir") + 1
            argv[at] = str(scratch / f"{index}-{argv[at]}")
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(argv)
        if status != 0:
            raise AssertionError(f"repro {' '.join(argv)} exited {status}")


def run_examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")


def run_bench() -> None:
    from bench.tracing import Tracer
    from bench.workloads import WORKLOADS

    for workload in WORKLOADS.values():
        small = workload.warmup()
        state = small.setup(1)
        inputs = small.inputs(1, 0)
        for tracer in (None, Tracer()):
            result = small.run_round(state, inputs, tracer=tracer)
            if result.failures:
                raise AssertionError(f"bench {workload.name}: {result.failures[:3]}")


def entered_during(entry_points) -> set[str]:
    """``module:qualname`` of every ``src/repro`` function the entry points enter."""
    codes = set()

    def hook(frame, event, arg):
        codes.add(frame.f_code)

    sys.settrace(hook)
    try:
        for run in entry_points:
            run()
    finally:
        sys.settrace(None)
    prefix = str(PACKAGE) + "/"
    entered = set()
    for code in codes:
        if code.co_filename.startswith(prefix):
            module = ".".join(Path(code.co_filename).relative_to(SOURCE).with_suffix("").parts)
            entered.add(f"{module.removesuffix('.__init__')}:{code.co_qualname}")
    return entered


def main() -> int:
    for path in (SOURCE, ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    # Before the entry points, so a name that breaks one is still named.
    unresolved = unresolved_names()
    for name in unresolved:
        print(f"UNRESOLVED {name}")
    with tempfile.TemporaryDirectory() as scratch:
        entered = entered_during([run_scenarios, lambda: run_cli(Path(scratch)),
                                  run_examples, run_bench])
    defined = defined_functions()
    unentered = sorted(set(defined) - entered)
    unexplained = [name for name in unentered if name not in KEPT]
    stale = sorted(name for name in KEPT if name not in defined or name in entered)
    body_lines = sum(end - first for name in unentered for _, first, end in [defined[name]])
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({
        "functions": len(defined),
        "unentered": unentered,
        "unexplained": unexplained,
        "stale_kept": stale,
        "unresolved_names": unresolved,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"{len(defined)} functions, {len(unentered)} never entered "
          f"({body_lines} lines after their def lines), {len(KEPT)} kept")
    for name in unexplained:
        file, first, _ = defined[name]
        print(f"UNEXPLAINED {name} ({Path(file).relative_to(ROOT)}:{first})")
    for name in stale:
        print(f"STALE KEPT {name}: " + ("entered" if name in entered else "not defined"))
    return 1 if unexplained or stale or unresolved else 0


if __name__ == "__main__":
    raise SystemExit(main())
