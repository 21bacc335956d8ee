"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.netlist.bench import parse_bench
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.sim.native import reset_backend
from repro.sim.power import PowerAnalyzer
from repro.vectors.generators import random_vector_pairs
from repro.vectors.population import FinitePopulation

C17_BENCH = """
# c17
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
"""


@pytest.fixture
def c17() -> Circuit:
    """The classic 6-NAND c17 benchmark."""
    return parse_bench(C17_BENCH, name="c17")


@pytest.fixture
def half_adder() -> Circuit:
    c = Circuit("half_adder")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("sum", GateType.XOR, ["a", "b"])
    c.add_gate("carry", GateType.AND, ["a", "b"])
    c.set_outputs(["sum", "carry"])
    c.validate()
    return c


@pytest.fixture
def hazard_circuit() -> Circuit:
    """y = a AND (NOT a after a buffer chain): static-0 hazard generator.

    Under unit delay, a 0->1 transition on ``a`` produces a transient
    pulse on ``y`` because the inverted path arrives two steps late.
    """
    c = Circuit("hazard")
    c.add_input("a")
    c.add_gate("abuf", GateType.BUF, ["a"])
    c.add_gate("na", GateType.NOT, ["abuf"])
    c.add_gate("y", GateType.AND, ["a", "na"])
    c.set_outputs(["y"])
    c.validate()
    return c


@pytest.fixture
def no_compiler(monkeypatch):
    """Stand in for a host without a C compiler.

    Points ``REPRO_NATIVE_CC`` at a missing path and forgets the probed
    C library before and after the test, so unit-delay blocks inside
    the test run the numpy loop and later tests probe the real host
    again.
    """
    monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/cc")
    reset_backend()
    yield
    monkeypatch.undo()
    reset_backend()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_population(c17) -> FinitePopulation:
    """A fully simulated 3000-pair pool on c17 (unit-delay power)."""
    analyzer = PowerAnalyzer(c17, mode="unit")
    return FinitePopulation.build(
        lambda n, g: random_vector_pairs(n, c17.num_inputs, g),
        analyzer.powers_for_pairs,
        num_pairs=3000,
        seed=99,
        name="c17-pool",
    )
