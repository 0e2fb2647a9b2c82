"""Smoke tests: every example script runs and prints its headline result."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        spec.loader.exec_module(module)
        module.main()
    return buffer.getvalue()


class TestExamples:
    def test_quickstart(self):
        output = run_example("quickstart")
        assert "Correct processes deliver identical sequences: True" in output
        assert "ETOB specification satisfied: True" in output

    def test_replicated_kv(self):
        output = run_example("replicated_kv")
        assert "All replicas converged: True" in output

    def test_partition_minority(self):
        output = run_example("partition_minority")
        assert output.count("AVAILABLE") == 2
        assert output.count("BLOCKED") == 1

    def test_causal_chat(self):
        output = run_example("causal_chat")
        # Algorithm 5 reports zero violations; the ablation reports some.
        sections = output.split("Ablation")
        assert "violations: 0" in sections[0]
        assert "violations: 0" not in sections[1].splitlines()[1]

    def test_bank_ledger(self):
        output = run_example("bank_ledger")
        assert "All ledgers equal: True" in output
        assert "Money conserved (should be 110): 110" in output

    def test_service_clients(self):
        output = run_example("service_clients")
        assert "failing over" in output
        assert "Surviving replicas agree: True" in output

    def test_cht_extraction_demo(self):
        output = run_example("cht_extraction_demo")
        assert "Correct processes agree on emulated leader: True" in output
        assert "(correct: True)" in output
