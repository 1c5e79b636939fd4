"""Spans around haarnull's public functions, for the traced run.

`Tracer.install` wraps every function in TARGETS and rebinds the wrapper
wherever the package's modules look the function up (for example both
`haarnull.measures.measure_of` and `haarnull.witness.measure_of`), so calls
made inside the program are traced too.  The program's files are not
touched.  A span is (name, start, end, parent); self time and counts are
accumulated from each span as it closes, round by round.  The spans of the
first traced round are also kept in memory and written out at the end; the
ten million or so spans of a whole traced run of codec-scan would take
over a gigabyte.
"""

import time
from functools import wraps

# (module, attribute) of every traced function; a dotted attribute is a method.
TARGETS = (
    ("codec", "decode"),
    ("codec", "encode"),
    ("codec", "decode_point"),
    ("codec", "encode_point"),
    ("measures", "convolve"),
    ("measures", "measure_of"),
    ("measures", "translate_set"),
    ("measures", "box_measure"),
    ("measures", "box_intersection_measure"),
    ("witness", "synthesize_witness"),
    ("witness", "verify_restrict_normalize"),
    ("witness", "is_witness_prefix"),
    ("eset", "load_graph_data"),
    ("eset", "build_encoded_set"),
    ("eset", "check_pairwise_gap"),
    ("eset", "coinflip_bound"),
    ("serialization", "jsonify"),
    ("report", "VerificationReport.to_json"),
)

PREFIX_SCAN = "witness.is_witness_prefix"


def _count_translate(counts, result, parent):
    """measure_of called by is_witness_prefix evaluates one translate."""
    if parent is not None and parent[0] == PREFIX_SCAN:
        counts[PREFIX_SCAN + ".translates"] += 1
        if result != 0:
            counts[PREFIX_SCAN + ".hits"] += 1


def _count_pairs(counts, report, parent):
    params = report.parameters
    counts["eset.check_pairwise_gap.pairs"] += params["decided_pairs"] + len(
        params["undecidable_pairs"]
    )


def _count_nodes(counts, report, parent):
    counts["eset.coinflip_bound.nodes_visited"] += report.parameters["nodes_visited"]


OBSERVERS = {
    "measures.measure_of": _count_translate,
    "eset.check_pairwise_gap": _count_pairs,
    "eset.coinflip_bound": _count_nodes,
}
COUNTERS = (
    PREFIX_SCAN + ".translates",
    PREFIX_SCAN + ".hits",
    "eset.check_pairwise_gap.pairs",
    "eset.coinflip_bound.nodes_visited",
)


def span_name(module, attr):
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.names = [span_name(m, a) for m, a in TARGETS]
        self.rounds = []  # per finished round: (calls, self_ns, counts)
        self.spans = []  # [name, start_ns, end_ns, parent index] of round 1
        self._stack = []  # open spans: [name, child_ns, index or None]
        self._start_round()

    def _start_round(self):
        self.calls = dict.fromkeys(self.names, 0)
        self.self_ns = dict.fromkeys(self.names, 0)
        self.counts = dict.fromkeys(COUNTERS, 0)

    def end_round(self):
        self.rounds.append((self.calls, self.self_ns, self.counts))
        self._start_round()

    def install(self, modules):
        """Wrap each target and rebind it in every haarnull module in `modules`."""
        package = [m for name, m in modules.items() if name.split(".")[0] == "haarnull"]
        for module_name, attr in TARGETS:
            name = span_name(module_name, attr)
            owner = modules["haarnull." + module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self._wrap(name, getattr(cls, method)))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(name, original)
            for module in package:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, traced)

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter_ns
        observe = OBSERVERS.get(name)
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            spans = tracer.spans if len(tracer.rounds) == 0 else None
            frame = [name, 0, None]
            if spans is not None:
                frame[2] = len(spans)
                spans.append([name, 0, 0, parent[2] if parent else None])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_ns[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if spans is not None:
                    spans[frame[2]][1:3] = start, end
            if observe is not None:
                observe(tracer.counts, result, parent)
            return result

        return traced

    def metrics(self):
        """Per-layer figures per round: counts of the first traced round
        (every round does the same work) and the median self time."""
        from statistics import median

        calls, _, counts = self.rounds[0]
        out = {}
        for name in self.names:
            out[name + ".calls"] = (calls[name], "count")
            out[name + ".self_ms"] = (
                median(r[1][name] for r in self.rounds) / 1e6,
                "ms",
            )
        for key in COUNTERS:
            out[key] = (counts[key], "count")
        translates = counts[PREFIX_SCAN + ".translates"]
        hits = counts[PREFIX_SCAN + ".hits"]
        out[PREFIX_SCAN + ".hit_ratio"] = (hits / translates if translates else 0.0, "1")
        return out

    def counts_repeat(self):
        """True when every traced round made the same calls and counts."""
        first = self.rounds[0]
        return all(r[0] == first[0] and r[2] == first[2] for r in self.rounds)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{i},{'' if parent is None else parent},{name},{start},{end}\n")
