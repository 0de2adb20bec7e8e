"""Command-line entry point: validate models, print plans, run experiments.

Exit codes are a stable contract: 0 success, 1 domain failure (invalid model,
runtime error), 2 input/parse failure (malformed document, bad config, usage).
All randomness flows from the config's master_seed; the only environment
variable honored is EFEPLAN_OUTPUT_DIR, which overrides the output directory.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .harness import (
    FLOAT_FMT,
    ConfigError,
    build_environment,
    derive_rng,
    load_config,
    run_experiment,
    run_trial,
    write_outputs,
)
from .inference import checked_actions
from .model import History, ModelFormatError, load_model
from .planning import _scored_posterior

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2


def _parse_index_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))


def _parse_history(model, obs_text: str, actions_text: str) -> History:
    """The --obs/--actions history; ValueError if it is malformed for the model.

    Malformed means not integers, lengths that do not pair up, more actions
    than the model's horizon, or an index outside the model's observations or
    actions. A well-formed history the model cannot produce, or one that
    leaves no decision, is left to planning.
    """
    history = History(_parse_index_list(obs_text), _parse_index_list(actions_text))
    checked_actions(model, history)
    return history


def cmd_validate(args) -> int:
    try:
        load_model(args.model)
    except ModelFormatError as exc:
        print(f"parse failure: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"cannot read model: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DOMAIN
    print("Ok")
    return EXIT_OK


def cmd_plan(args) -> int:
    if not 0 <= args.gamma < math.inf:  # NaN fails every comparison
        print(f"bad gamma: {args.gamma!r} is not a finite number >= 0", file=sys.stderr)
        return EXIT_PARSE
    try:
        model = load_model(args.model)
    except (ModelFormatError, OSError) as exc:
        print(f"parse failure: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DOMAIN
    try:
        history = _parse_history(model, args.obs, args.actions)
    except ValueError as exc:
        print(f"bad history: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        posterior, table = _scored_posterior(model, history, args.gamma)
    except ValueError as exc:
        print(f"planning failed: {exc}", file=sys.stderr)
        return EXIT_DOMAIN

    rows = list(table)  # built once, read by the sort and the print
    # A stable sort of lexicographic indices breaks ties in total by actions.
    order = sorted(range(len(rows)), key=lambda i: rows[i].total)
    header = "policy,total,risk,ambiguity,extrinsic,intrinsic,residual,probability"
    print(header)
    for i in order:
        policy = "-".join(str(a) for a in posterior.policies[i].actions)
        cells = ",".join(FLOAT_FMT % v for v in rows[i].as_row())
        prob = FLOAT_FMT % posterior.probs.probs[i]
        print(f"{policy},{cells},{prob}")
    return EXIT_OK


def _resolve_output_dir(args, config) -> str | None:
    if getattr(args, "output_dir", None):
        return args.output_dir
    env_dir = os.environ.get("EFEPLAN_OUTPUT_DIR")
    if env_dir:
        return env_dir
    return config.output_dir


def cmd_run(args) -> int:
    try:
        config = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config failure: {exc}", file=sys.stderr)
        return EXIT_PARSE
    output_dir = _resolve_output_dir(args, config)
    if output_dir is None:
        print("no output directory configured", file=sys.stderr)
        return EXIT_PARSE
    try:
        Path(output_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        result = run_experiment(config)
        paths = write_outputs(result, output_dir)
    except ConfigError as exc:
        print(f"config failure: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"model failure: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    for path in paths:
        print(path)
    return EXIT_OK


def cmd_trace(args) -> int:
    try:
        config = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config failure: {exc}", file=sys.stderr)
        return EXIT_PARSE
    names = [spec.name for spec in config.agents]
    agent_name = args.agent or names[0]
    if agent_name not in names:
        print(f"agent {agent_name!r} not in config (have {names})", file=sys.stderr)
        return EXIT_PARSE
    if not 0 <= args.trial < config.n_trials:
        print(f"trial index {args.trial} out of range", file=sys.stderr)
        return EXIT_PARSE
    agent_index = names.index(agent_name)
    spec = config.agents[agent_index]
    try:
        model, env, reward_per_obs = build_environment(config)
        rng = derive_rng(config.master_seed, agent_index, args.trial)
        record, trace = run_trial(
            model,
            env,
            spec.kind,
            config.gamma,
            spec.selection,
            rng,
            reward_per_obs=reward_per_obs,
            trial_index=args.trial,
        )
    except ConfigError as exc:
        print(f"config failure: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, RuntimeError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_DOMAIN

    print(f"trial {args.trial} agent {agent_name} context {record.context}")
    print(f"observations {list(record.observations)} actions {list(record.actions)}")
    print(f"score {FLOAT_FMT % record.score}")
    for dt, beliefs in enumerate(trace.held_at):
        label = f"decision_time {dt}" if dt < len(trace.held_at) - 1 else "post-trial"
        print(label)
        for bt in range(len(beliefs)):
            cells = " ".join(FLOAT_FMT % p for p in beliefs[bt].probs)
            print(f"  t={bt}: {cells}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors print one stderr line, exit 2.

    The usage text is left out, and a line break in an echoed argument is
    escaped.
    """

    def error(self, message: str):
        message = "\\n".join(message.splitlines())
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="efeplan",
        description="Expected-free-energy planning over discrete generative models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a model file")
    p.add_argument("model")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("plan", help="print the policy table for a model and history")
    p.add_argument("model")
    p.add_argument(
        "--obs",
        default="0",
        help="comma-separated observed indices o_0..o_t (default: the single initial observation 0)",
    )
    p.add_argument(
        "--actions", default="", help="comma-separated executed actions a_1..a_t"
    )
    p.add_argument("--gamma", type=float, default=1.0)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="run an experiment config and write output files")
    p.add_argument("config")
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("trace", help="replay one trial and print its belief trace")
    p.add_argument("config")
    p.add_argument("trial", type=int)
    p.add_argument("--agent", default=None)
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout went away (`efeplan plan ... | head`). Send the
        # rest of the output to devnull so the interpreter's flush at exit
        # does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        print("output closed early: broken pipe", file=sys.stderr)
        return EXIT_DOMAIN
    return status


if __name__ == "__main__":
    sys.exit(main())
