"""Command-line orchestration: config parsing, solving, sweeps, ingestion.

The configuration format is flat `key = value` lines with `#` comments and
comma-separated lists. Exit codes: 0 success, 2 malformed configuration,
3 infeasible or degenerate problem, 4 I/O or data-format failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .equilibrium import EquilibriumSolution, GameSpec, solve_aware_equilibrium
from .errors import (
    ConfigError,
    ConstructionError,
    DegenerateGameError,
    DomainError,
    EmptyDataError,
    FormatError,
    InfeasibleError,
    SeqGameError,
    ShapeError,
)
from .prob import Channel, Distribution, DistortionMeasure, _instance
from .simharness import EQUILIBRIUM_ADVERSARY, ScenarioConfig, monte_carlo

__all__ = [
    "RunConfig",
    "parse_run_config",
    "dump_run_config",
    "build_game_spec",
    "build_scenario",
    "ingest_histogram",
    "solution_csv",
    "main",
]

@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration; optional fields stay None until required.

    The fields are the config keys: `hypotheses` holds hypothesis_<i>,
    `channels` channel_<i>, and each other field the key of its name. A key
    left out keeps the default here, the library's own where it has one."""

    hypotheses: tuple[tuple[float, ...], ...]
    delta: float
    measure: str
    weights: tuple[float, ...] | None = None
    support_floor: float = GameSpec.support_floor
    zeta: float = ScenarioConfig.zeta
    alpha_grid: tuple[float, ...] | None = None
    replications: int | None = None
    seed: int | None = None
    cap: int = ScenarioConfig.cap
    stride: int = ScenarioConfig.stride
    true_hypothesis: int | None = None
    adversary: str = EQUILIBRIUM_ADVERSARY
    channel: tuple[float, ...] | None = None
    channels: tuple[tuple[float, ...], ...] | None = None


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from None


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None


def _parse_float_list(key: str, raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",")]
    if any(not p for p in parts):
        raise ConfigError(f"key {key!r}: empty entry in list {raw!r}")
    return tuple(_parse_float(key, p) for p in parts)


def _parse_text(key: str, raw: str) -> str:
    return raw


# The parser of each key other than hypothesis_<i> and channel_<i>, in
# RunConfig field order.
_KEYS = {
    "delta": _parse_float,
    "measure": _parse_text,
    "weights": _parse_float_list,
    "support_floor": _parse_float,
    "zeta": _parse_float,
    "alpha_grid": _parse_float_list,
    "replications": _parse_int,
    "seed": _parse_int,
    "cap": _parse_int,
    "stride": _parse_int,
    "true_hypothesis": _parse_int,
    "adversary": _parse_text,
    "channel": _parse_float_list,
}


def _indexed_keys(pairs: dict[str, str], stem: str) -> list[str]:
    """Keys stem_0..stem_{m-1}; indices must start at 0 and be contiguous."""
    found = {}
    for key in pairs:
        if key.startswith(stem + "_"):
            suffix = key[len(stem) + 1:]
            if suffix.isdigit():
                found[int(suffix)] = key
    if not found:
        return []
    if sorted(found) != list(range(len(found))):
        raise ConfigError(f"{stem} indices must run 0..{len(found) - 1} without gaps")
    return [found[i] for i in range(len(found))]


def parse_run_config(text: str) -> RunConfig:
    """The RunConfig of a config text; `_KEYS` lists the keys it accepts
    besides hypothesis_<i> and channel_<i>."""
    pairs: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value

    hyp_keys = _indexed_keys(pairs, "hypothesis")
    if len(hyp_keys) < 2:
        raise ConfigError("need hypothesis_0, hypothesis_1, ... (at least two)")
    chan_keys = _indexed_keys(pairs, "channel")
    unknown = sorted(set(pairs) - set(hyp_keys) - set(chan_keys) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    for required in ("delta", "measure"):
        if required not in pairs:
            raise ConfigError(f"missing required key {required!r}")

    _wrap_config(DistortionMeasure, pairs["measure"])
    adversary = pairs.get("adversary", EQUILIBRIUM_ADVERSARY)
    if adversary not in (EQUILIBRIUM_ADVERSARY, "channels"):
        raise ConfigError(f"adversary must be {EQUILIBRIUM_ADVERSARY!r} or 'channels', got {adversary!r}")
    has_common = "channel" in pairs
    if adversary == "channels":
        if has_common == bool(chan_keys):
            raise ConfigError(
                "adversary = channels needs either 'channel' or 'channel_<i>' keys, not both"
            )
    elif has_common or chan_keys:
        raise ConfigError("channel keys require adversary = channels")

    return RunConfig(
        hypotheses=tuple(_parse_float_list(k, pairs[k]) for k in hyp_keys),
        **{key: parse(key, pairs[key]) for key, parse in _KEYS.items() if key in pairs},
        channels=tuple(_parse_float_list(k, pairs[k]) for k in chan_keys) or None,
    )


def dump_run_config(config: RunConfig) -> str:
    """Canonical text form; parsing it back yields an identical RunConfig."""
    lines = ["# seqgame configuration"]

    def put(key: str, value) -> None:
        if value is None:
            return
        if isinstance(value, tuple):
            value = ", ".join(repr(v) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")

    for i, h in enumerate(config.hypotheses):
        put(f"hypothesis_{i}", h)
    for key in _KEYS:
        put(key, getattr(config, key))
    for i, rows in enumerate(config.channels or ()):
        put(f"channel_{i}", rows)
    return "\n".join(lines) + "\n"


def _wrap_config(fn, *args):
    """Value and shape problems in config-built objects are config errors."""
    try:
        return fn(*args)
    except (ConstructionError, ShapeError, DomainError) as exc:
        raise ConfigError(str(exc)) from exc


def build_game_spec(config: RunConfig) -> GameSpec:
    _instance("config", config, RunConfig)
    hyps = tuple(_wrap_config(Distribution, h) for h in config.hypotheses)
    return _wrap_config(
        lambda: GameSpec(
            hypotheses=hyps,
            delta=config.delta,
            measure=DistortionMeasure(config.measure),
            weights=config.weights or (),
            support_floor=config.support_floor,
        )
    )


def _build_channel(flat: tuple[float, ...], size: int) -> Channel:
    if len(flat) != size * size:
        raise ConfigError(
            f"channel needs {size * size} row-major entries, got {len(flat)}"
        )
    return _wrap_config(Channel, np.array(flat).reshape(size, size))


def build_scenario(config: RunConfig, seed_override: int | None = None) -> ScenarioConfig:
    _instance("config", config, RunConfig)
    for key in ("alpha_grid", "replications"):
        if getattr(config, key) is None:
            raise ConfigError(f"missing required key {key!r}")
    seed = seed_override if seed_override is not None else config.seed
    if seed is None:
        raise ConfigError("missing required key 'seed' (or pass --seed)")
    spec = build_game_spec(config)
    size = spec.alphabet_size
    adversary: str | Channel | tuple[Channel, ...]
    if config.adversary == EQUILIBRIUM_ADVERSARY:
        adversary = EQUILIBRIUM_ADVERSARY
    elif config.channel is not None:
        adversary = _build_channel(config.channel, size)
    else:
        assert config.channels is not None
        adversary = tuple(_build_channel(c, size) for c in config.channels)
    return _wrap_config(
        lambda: ScenarioConfig(
            spec=spec,
            alpha_grid=config.alpha_grid,
            replications=config.replications,
            seed=seed,
            adversary=adversary,
            cap=config.cap,
            stride=config.stride,
            zeta=config.zeta,
            true_hypothesis=config.true_hypothesis,
        )
    )


def ingest_histogram(path: str | Path, binarize_threshold: int) -> Distribution:
    """Estimate the binarized pixel distribution of a plain-text intensity file.

    Values strictly greater than the threshold map to symbol 1; the result
    is (fraction low, fraction high).
    """
    tokens = Path(path).read_text().split()
    if not tokens:
        raise EmptyDataError(f"no values in {path}")
    values = np.empty(len(tokens), dtype=np.int64)
    for i, tok in enumerate(tokens):
        try:
            values[i] = int(tok)
        except ValueError:
            raise FormatError(f"non-integer value {tok!r} in {path}") from None
    if values.min() < 0 or values.max() > 255:
        raise FormatError(f"values in {path} must lie in [0, 255]")
    frac_high = float(np.mean(values > binarize_threshold))
    return Distribution([1.0 - frac_high, frac_high])


def solution_csv(solution: EquilibriumSolution) -> str:
    """One CSV row: payoff, per-hypothesis exponents, then the flattened
    worst-case laws as q_star_<hypothesis>_<symbol>."""
    m = len(solution.q_star)
    size = solution.q_star[0].size
    header = ["payoff"] + [f"exponent_{i}" for i in range(m)]
    cells = [format(solution.payoff, ".12g")]
    cells += [format(float(e), ".12g") for e in solution.exponents]
    for i in range(m):
        for s in range(size):
            header.append(f"q_star_{i}_{s}")
            cells.append(format(float(solution.q_star[i].probs[s]), ".12g"))
    return ",".join(header) + "\n" + ",".join(cells) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_solve(args) -> int:
    config = parse_run_config(Path(args.config).read_text())
    if args.dump_config:
        sys.stdout.write(dump_run_config(config))
        return 0
    spec = build_game_spec(config)
    solution = solve_aware_equilibrium(spec)
    print(f"payoff {format(solution.payoff, '.12g')}")
    for i, q in enumerate(solution.q_star):
        exp = format(float(solution.exponents[i]), ".12g")
        law = ", ".join(format(float(v), ".12g") for v in q.probs)
        print(f"hypothesis {i}: exponent {exp}  worst-case law ({law})")
    print(f"converged {solution.converged}")
    _emit(solution_csv(solution), args.out)
    return 0


def _cmd_sweep(args) -> int:
    """sweep, and simulate: a sweep whose alpha grid has one entry."""
    config = parse_run_config(Path(args.config).read_text())
    if args.dump_config:
        sys.stdout.write(dump_run_config(config))
        return 0
    scenario = build_scenario(config, args.seed)
    if args.command == "simulate" and len(scenario.alpha_grid) != 1:
        raise ConfigError("simulate expects exactly one alpha_grid entry; use sweep")
    _emit(monte_carlo(scenario).to_csv(), args.out)
    return 0


def _cmd_ingest(args) -> int:
    dist = ingest_histogram(args.data, args.threshold)
    lines = ["symbol,probability"]
    for sym, p in enumerate(dist.probs):
        lines.append(f"{sym},{format(float(p), '.12g')}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqgame",
        description="Sequential hypothesis testing against adversarial perturbation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve the equilibrium and print exponents")
    solve.add_argument("--config", required=True)
    solve.add_argument("--out")
    solve.add_argument("--dump-config", action="store_true")
    solve.set_defaults(handler=_cmd_solve)

    for name, blurb in (
        ("simulate", "run a single-alpha Monte Carlo scenario"),
        ("sweep", "run the full alpha grid and emit the report CSV"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out")
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--dump-config", action="store_true")
        cmd.set_defaults(handler=_cmd_sweep)

    ingest = sub.add_parser("ingest", help="binarize a pixel file into a distribution")
    ingest.add_argument("--data", required=True)
    ingest.add_argument("--threshold", type=int, required=True)
    ingest.add_argument("--out")
    ingest.set_defaults(handler=_cmd_ingest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleError, DegenerateGameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (EmptyDataError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SeqGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
