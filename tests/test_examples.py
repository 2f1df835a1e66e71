"""The examples are part of the public surface: they must run.

Each example module is imported and executed in-process (stdout captured)
so a README-level regression -- renamed API, changed signature, broken
scenario -- fails the suite, not the first user.
"""

import importlib.util
from pathlib import Path


EXAMPLES = Path(__file__).parent.parent / "examples"


def load_module(name: str):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamplesRun:
    def test_quickstart(self, capsys):
        load_module("quickstart").main()
        out = capsys.readouterr().out
        assert "optimal precision" in out
        assert "certified optimal" in out

    def test_heterogeneous_wan(self, capsys):
        load_module("heterogeneous_wan").main()
        out = capsys.readouterr().out
        assert "optimal guaranteed precision" in out
        assert "anchoring" in out

    def test_asynchronous_ring(self, capsys):
        load_module("asynchronous_ring").main()
        out = capsys.readouterr().out
        assert "Act 1" in out and "Act 3" in out
        assert "adversarial equivalent execution" in out

    def test_distributed_leader(self, capsys):
        module = load_module("distributed_leader")
        module.leader_protocol_demo()
        module.drift_demo()
        out = capsys.readouterr().out
        assert "centralized optimum" in out
        assert "resync" in out

    def test_campaign_study(self, capsys):
        load_module("campaign_study").main()
        out = capsys.readouterr().out
        assert "Campaign" in out
        assert "markdown rendering" in out

    def test_operations_toolkit(self, capsys):
        module = load_module("operations_toolkit")
        module.streaming_demo()
        module.diagnosis_demo()
        module.probabilistic_demo()
        out = capsys.readouterr().out
        assert "identical: True" in out
        assert "convicted" in out
        assert "confidence" in out


class TestExampleHygiene:
    def test_every_example_has_docstring_and_main_guard(self):
        for path in sorted(EXAMPLES.glob("*.py")):
            source = path.read_text()
            assert source.lstrip().startswith('"""'), path.name
            assert '__main__' in source, path.name

    def test_readme_lists_every_example(self):
        readme = (EXAMPLES.parent / "README.md").read_text()
        for path in sorted(EXAMPLES.glob("*.py")):
            assert path.name in readme, f"{path.name} missing from README"
