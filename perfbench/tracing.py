"""Per-layer tracing from outside the library.

The traced run replaces public functions with timing wrappers at the place
where the consuming module looks them up: ``from`` imports bind a name in
the importing module, so ``twoedit.code.padded_weight_sums`` is patched
rather than ``twoedit.syndrome.padded_weight_sums``.  Every binding is
restored afterwards.  A binding that no longer exists is reported as absent.

Calls are aggregated as count and total time per binding, and as self time
per layer: a span's duration minus the wrapped child spans inside it.  Word
construction is only counted.  Calls made inside ``multiprocessing`` pool
workers run in other processes and are invisible to these counters.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "syndrome", "code", "channel", "decoder", "analysis")


class Tracer:
    """Wrappers for the bindings in BINDINGS and the totals they collect."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [key, child seconds]
        self.calls: Counter = Counter()  # per binding key
        self.seconds: defaultdict = defaultdict(float)  # per binding key
        self.self_s: defaultdict = defaultdict(float)  # per layer
        self.counts: Counter = Counter()  # derived counters
        self.absent: list[str] = []
        self._restore: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def span(self, layer: str, key: str, fn, after=None):
        stack, calls, seconds, self_s = self.stack, self.calls, self.seconds, self.self_s

        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[key] += 1
                seconds[key] += dt
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, module_name: str, path: str, make) -> None:
        """Replace ``module.path`` (``name`` or ``Class.name``) by ``make(original)``."""
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name, None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.absent.append(f"{module_name}.{path}")
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        for module_name, path, layer, after, *alias in BINDINGS:
            key = alias[0] if alias else f"{layer}.{path}"
            self._patch(module_name, path,
                        lambda fn, layer=layer, key=key, after=after: self.span(layer, key, fn, after))
        self._patch("twoedit.words", "Word.__init__", lambda fn: self.counter("words.constructed", fn))
        self._patch("twoedit.words", "Word.from_int",
                    lambda cm: classmethod(self.counter("words.constructed", cm.__func__)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, per pass over the workload's input set."""
        c, s, k = self.calls, self.seconds, self.counts
        raw, unique = k["decoder.candidates_raw"], k["decoder.candidates_unique"]
        checked = c["decoder.is_codeword"]
        out = {
            "cli.calls": c["cli.main"],
            "cli.self_s": self.self_s["cli"],
            "cli.build_parser_s": s["cli.build_parser"],
            "syndrome.calls": sum(v for key, v in c.items() if key.startswith("syndrome.")),
            "syndrome.self_s": self.self_s["syndrome"],
            "code.self_s": self.self_s["code"],
            "code.groups": k["code.groups"],
            "code.pairs": k["code.pairs"],
            "code.is_codeword_calls": c["code.is_codeword"] + checked,
            "channel.edit_distance_calls": c["channel.edit_distance"],
            "channel.edit_distance_s": s["channel.edit_distance"],
            "channel.error_ball_calls": c["channel.error_ball"],
            "channel.apply_errors_calls": c["channel.apply_errors"],
            "channel.self_s": self.self_s["channel"],
            "decoder.self_s": self.self_s["decoder"],
            "decoder.candidates_raw": raw,
            "decoder.candidates_unique": unique,
            "decoder.checked": checked,
            "analysis.self_s": self.self_s["analysis"],
            "analysis.find_relation_calls": c["analysis.find_relation"],
            "analysis.find_relation_s": s["analysis.find_relation"],
            "analysis.classify_s": s["analysis.classify_errors"],
            "analysis.rounds": k["analysis.rounds"],
            "words.constructed": k["words.constructed"],
        }
        out = {name: value / passes for name, value in out.items()}
        out["decoder.unique_ratio"] = unique / raw if raw else 0.0
        out["decoder.survivor_ratio"] = k["decoder.survivors"] / checked if checked else 0.0
        return out


# -- post-call hooks: counters read off results ------------------------------


def _groups_census(t: Tracer, census) -> None:
    t.counts["code.groups"] += census.class_count()


def _groups_sweep(t: Tracer, groups) -> None:
    t.counts["code.groups"] += len(groups)


def _pairs(t: Tracer, report) -> None:
    t.counts["code.pairs"] += report.pairs


def _raw_candidate(t: Tracer, _word) -> None:
    if t.stack and t.stack[-1][0] == "channel.error_ball":
        t.counts["decoder.candidates_raw"] += 1


def _unique(t: Tracer, candidates) -> None:
    t.counts["decoder.candidates_unique"] += len(candidates)


def _survivor(t: Tracer, member: bool) -> None:
    t.counts["decoder.survivors"] += bool(member)


def _rounds(t: Tracer, separation) -> None:
    t.counts["analysis.rounds"] += len(separation.rounds)


# (module that looks the name up, name or Class.name, layer, post-call hook[,
# key]); the key defaults to "<layer>.<name>"
BINDINGS = (
    ("twoedit.cli", "main", "cli", None),
    ("twoedit.cli", "build_parser", "cli", None),
    ("twoedit.cli", "syndrome_tuple", "syndrome", None),
    ("twoedit.code", "padded_weight_sums", "syndrome", None),
    ("twoedit.code", "bucket_census", "code", _groups_census),
    ("twoedit.code", "best_params", "code", None),
    ("twoedit.code", "Census.top", "code", None),
    ("twoedit.code", "syndrome_groups", "code", _groups_sweep),
    ("twoedit.code", "scan_pairwise_distance", "code", _pairs),
    ("twoedit.code", "is_codeword", "code", None),
    ("twoedit.code", "edit_distance", "channel", None),
    ("twoedit.decoder", "error_ball", "channel", None),
    ("twoedit.channel", "apply_errors", "channel", _raw_candidate),
    ("twoedit.decoder", "decode", "decoder", None),
    ("twoedit.decoder", "candidate_preimages", "decoder", _unique),
    ("twoedit.decoder", "is_codeword", "code", _survivor, "decoder.is_codeword"),
    ("twoedit.analysis", "separate_errors", "analysis", _rounds),
    ("twoedit.analysis", "find_relation", "analysis", None),
    ("twoedit.analysis", "classify_errors", "analysis", None),
    ("twoedit.analysis", "pair_type", "analysis", None),
)
