"""repro — statistical maximum power estimation for VLSI circuits.

Reproduction of Qiu, Wu & Pedram, *"Maximum Power Estimation Using the
Limiting Distributions of Extreme Order Statistics"* (DAC 1998), as a
full library: gate-level netlists and simulators, cycle power models,
vector-pair populations, the extreme-value estimation core, baselines,
and the paper's complete experiment suite.

Quick start (the one-call facade; see ``docs/api.md``)::

    from repro import EstimatorConfig, estimate

    result = estimate("c432", EstimatorConfig(error=0.05), seed=1)
    print(result.summary())

Or assembled from the building blocks::

    from repro import (
        build_circuit, PowerAnalyzer, FinitePopulation,
        high_activity_vector_pairs, MaxPowerEstimator,
    )

    circuit = build_circuit("c432")
    analyzer = PowerAnalyzer(circuit)          # unit-delay glitch power
    pop = FinitePopulation.build(
        lambda n, rng: high_activity_vector_pairs(n, circuit.num_inputs, rng=rng),
        analyzer.powers_for_pairs,
        num_pairs=20_000, seed=1, name="c432-unconstrained",
    )
    result = MaxPowerEstimator(pop, error=0.05, confidence=0.90).run(rng=0)
    print(result.summary())

As a service (``repro serve`` on the other end)::

    from repro import Client

    client = Client("http://127.0.0.1:8000")
    job = client.submit("c432", seed=1)
    result = client.result(client.wait(job["id"])["id"])
"""

from .errors import (
    ConfigError,
    EstimationError,
    FitError,
    JobCancelledError,
    NetlistError,
    ParseError,
    PopulationError,
    ReproError,
    SchemaError,
    ServiceError,
    SimulationError,
)
from .estimation import (
    EstimationResult,
    GeneticMaxPowerSearch,
    HighQuantileEstimator,
    MaxDelayEstimator,
    MaxPowerEstimator,
    SimpleRandomSampling,
    UncertaintyBound,
    srs_required_units,
)
from .evt import (
    Frechet,
    GeneralizedWeibull,
    Gumbel,
    WeibullFit,
    block_maxima,
    classify_domain,
    fit_weibull_lsq,
    fit_weibull_mle,
    fit_weibull_moments,
    t_mean_interval,
)
from .netlist import (
    CellLibrary,
    Circuit,
    GateType,
    default_library,
    load_bench,
    load_verilog,
    parse_bench,
    parse_verilog,
    write_bench,
    write_verilog,
)
from .netlist.generators import available_circuits, build_circuit
from .sim import (
    BitParallelSimulator,
    CompiledPlan,
    compile_plan,
    EventDrivenSimulator,
    LibraryDelay,
    PowerAnalyzer,
    StaticTimingAnalyzer,
    UnitDelay,
    ZeroDelay,
)
from .vectors import (
    FinitePopulation,
    PowerPopulation,
    StreamingPopulation,
    high_activity_vector_pairs,
    markov_transition_vector_pairs,
    random_vector_pairs,
    transition_prob_vector_pairs,
)
from .api import (
    EstimatorConfig,
    build_population,
    estimate,
    hyper_sample_many,
    run_many,
)
from .schemas import SCHEMA_VERSION

__version__ = "2.0.0"

# The service layer (HTTP server/client) is exported lazily: importing
# ``repro`` must stay cheap, and most sessions never touch the service.
_SERVICE_EXPORTS = ("Client", "JobServer", "JobSpec", "JobState", "serve")


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        from . import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "NetlistError",
    "ParseError",
    "SimulationError",
    "PopulationError",
    "EstimationError",
    "FitError",
    "ConfigError",
    "SchemaError",
    "ServiceError",
    "JobCancelledError",
    # unified API (repro.api)
    "EstimatorConfig",
    "estimate",
    "build_population",
    "run_many",
    "hyper_sample_many",
    "SCHEMA_VERSION",
    # service (lazy — repro.service)
    "Client",
    "JobServer",
    "JobSpec",
    "JobState",
    "serve",
    # netlist
    "Circuit",
    "GateType",
    "CellLibrary",
    "default_library",
    "parse_bench",
    "load_bench",
    "write_bench",
    "parse_verilog",
    "load_verilog",
    "write_verilog",
    "build_circuit",
    "available_circuits",
    # sim
    "BitParallelSimulator",
    "CompiledPlan",
    "compile_plan",
    "EventDrivenSimulator",
    "PowerAnalyzer",
    "StaticTimingAnalyzer",
    "ZeroDelay",
    "UnitDelay",
    "LibraryDelay",
    # vectors
    "PowerPopulation",
    "FinitePopulation",
    "StreamingPopulation",
    "random_vector_pairs",
    "high_activity_vector_pairs",
    "transition_prob_vector_pairs",
    "markov_transition_vector_pairs",
    # evt
    "GeneralizedWeibull",
    "Gumbel",
    "Frechet",
    "WeibullFit",
    "fit_weibull_mle",
    "fit_weibull_lsq",
    "fit_weibull_moments",
    "block_maxima",
    "classify_domain",
    "t_mean_interval",
    # estimation
    "MaxPowerEstimator",
    "EstimationResult",
    "SimpleRandomSampling",
    "srs_required_units",
    "HighQuantileEstimator",
    "GeneticMaxPowerSearch",
    "UncertaintyBound",
    "MaxDelayEstimator",
]
