"""Package-level hygiene: exports, docstrings, error hierarchy, metadata."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import repro
from repro import errors

SUBPACKAGES = [
    "repro.analysis",
    "repro.attacks",
    "repro.baselines",
    "repro.bridging",
    "repro.core",
    "repro.crypto",
    "repro.net",
    "repro.storage",
]

MODULES = [
    "repro.analysis.diagram",
    "repro.analysis.experiments",
    "repro.analysis.metrics",
    "repro.analysis.report",
    "repro.analysis.stats",
    "repro.attacks.harness",
    "repro.attacks.naive",
    "repro.baselines.ssl_only",
    "repro.baselines.zhou_gollmann",
    "repro.bridging.tac",
    "repro.cli",
    "repro.core.archive",
    "repro.core.confidential",
    "repro.core.evidence",
    "repro.core.messages",
    "repro.core.protocol",
    "repro.crypto.chacha20",
    "repro.crypto.chacha20_np",
    "repro.crypto.drbg",
    "repro.crypto.rsa",
    "repro.crypto.shamir",
    "repro.engine.sharding",
    "repro.net.securechannel",
    "repro.storage.azurelike",
    "repro.storage.gaelike",
    "repro.storage.s3like",
]


class TestExports:
    @pytest.mark.parametrize("name", SUBPACKAGES + MODULES)
    def test_module_importable(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("name", SUBPACKAGES + MODULES)
    def test_module_has_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20, name

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        for entry in getattr(module, "__all__", []):
            assert hasattr(module, entry), f"{name}.__all__ lists missing {entry!r}"

    def test_top_level_all_resolves(self):
        for entry in repro.__all__:
            assert hasattr(repro, entry)

    def test_version(self):
        assert repro.__version__ == "1.5.0"


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name, obj in inspect.getmembers(errors, inspect.isclass):
            if issubclass(obj, Exception) and obj.__module__ == "repro.errors":
                assert issubclass(obj, errors.ReproError), name

    def test_subsystem_bases(self):
        assert issubclass(errors.SignatureError, errors.CryptoError)
        assert issubclass(errors.HandshakeError, errors.NetworkError)
        assert issubclass(errors.IntegrityError, errors.StorageError)
        assert issubclass(errors.EvidenceError, errors.ProtocolError)
        assert issubclass(errors.ReplayError, errors.ProtocolError)

    def test_one_base_catch_works(self):
        from repro.crypto import rsa
        from repro.crypto.drbg import HmacDrbg

        try:
            rsa.generate_keypair(10, HmacDrbg(b"x"))
        except errors.ReproError:
            pass  # a single except clause covers the library


class TestPublicDocstrings:
    @pytest.mark.parametrize(
        "obj_path",
        [
            "repro.core.protocol.make_deployment",
            "repro.core.protocol.run_session",
            "repro.core.evidence.build_evidence",
            "repro.core.arbitrator.Arbitrator",
            "repro.crypto.rsa.generate_keypair",
            "repro.crypto.shamir.split_secret",
            "repro.net.network.Network",
            "repro.storage.azurelike.AzureLikeService",
            "repro.engine.sharding.run_pool",
        ],
    )
    def test_key_api_documented(self, obj_path):
        module_name, attr = obj_path.rsplit(".", 1)
        obj = getattr(importlib.import_module(module_name), attr)
        assert obj.__doc__ and len(obj.__doc__.strip()) > 10


class TestPackaging:
    """pyproject.toml declares no dependencies and takes its
    version from ``repro.__version__`` (run keys fold the version in,
    so two sources could drift into an identity bug)."""

    @pytest.fixture(scope="class")
    def pyproject(self):
        tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
        path = Path(__file__).resolve().parents[1] / "pyproject.toml"
        return tomllib.loads(path.read_text(encoding="utf-8"))

    def test_version_is_dynamic_from_the_package(self, pyproject):
        project = pyproject["project"]
        assert "version" not in project
        assert "version" in project["dynamic"]
        dynamic = pyproject["tool"]["setuptools"]["dynamic"]
        assert dynamic["version"] == {"attr": "repro.__version__"}

    @pytest.fixture(scope="class")
    def imports(self):
        """Every ``(file, top-level module)`` imported anywhere under
        ``src/repro``, function-local imports included."""
        found = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found.update((path.name, name.split(".")[0]) for name in names)
        return found

    def test_stdlib_only(self, pyproject, imports):
        """The package runs on a bare interpreter: every import in
        ``src/repro`` is the standard library or ``repro`` itself, and
        pyproject declares no runtime dependency."""
        assert pyproject["project"]["dependencies"] == []
        outside = sorted(
            f"{file}: {name}" for file, name in imports
            if name not in sys.stdlib_module_names and name != "repro"
        )
        assert not outside, outside

    def test_reads_no_clock(self, imports):
        """Every number the package reports is a pure function of the
        seed: no module imports ``time``.  Wall clock is measured only
        by the repository benchmark (``python3 -m bench``)."""
        clocked = sorted(file for file, name in imports if name == "time")
        assert not clocked, clocked
