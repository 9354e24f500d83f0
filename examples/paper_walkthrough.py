"""A guided tour of the paper's worked examples, with live numbers.

Walks through §3 (edit distance, fms transformation costs), §4.1 (q-gram
sets, min-hash signatures, fmsapx), §4.2 (the ETI relation — the analogue
of Table 3), and §4.3 (the basic algorithm's score accumulation and OSC's
fetching/stopping tests) on the Tables 1–2 data.

Run:  python examples/paper_walkthrough.py
"""

from repro import FuzzyMatcher, MatchConfig
from repro.core.fms import fms, transformation_cost
from repro.core.fms_apx import fms_apx
from repro.core.strings import edit_distance, qgram_set, tuple_edit_similarity
from repro.obs.tracing import Tracer, render_span

config = MatchConfig(q=3, signature_size=2)


def banner(title):
    print(f"\n{'=' * 68}\n{title}\n{'=' * 68}")


# --- §3: edit distance -------------------------------------------------------

banner("§3 Edit distance")
print(f"ed('company', 'corporation') = {edit_distance('company', 'corporation'):.3f}"
      "   (paper: 7/11 ≈ 0.64)")
print(f"ed('beoing', 'boeing')       = {edit_distance('beoing', 'boeing'):.3f}"
      "   (paper: 0.33)")

# --- Table 1 / Table 2 -------------------------------------------------------

banner("Tables 1–2: the organization reference relation and dirty inputs")
# One build loads the relation, weighs its tokens (the IDF frequency cache
# of §4.4.1) and builds the ETI of §4.2, shown below.
matcher = FuzzyMatcher.build(
    ["org_name", "city", "state", "zipcode"],
    [
        (1, ("Boeing Company", "Seattle", "WA", "98004")),
        (2, ("Bon Corporation", "Seattle", "WA", "98014")),
        (3, ("Companions", "Seattle", "WA", "98024")),
    ],
    config,
)
for tid, values in matcher.reference.scan():
    print(f"  R{tid}: {values}")

weights = matcher.weights

# --- §1's motivating failure of edit distance --------------------------------

banner("§1: why edit distance fails on I3 = [Boeing Corporation, ...]")
i3 = ("Boeing Corporation", "Seattle", "WA", "98004")
r1 = ("Boeing Company", "Seattle", "WA", "98004")
r2 = ("Bon Corporation", "Seattle", "WA", "98014")
print(f"  ed-similarity(I3, R1) = {tuple_edit_similarity(i3, r1):.3f}")
print(f"  ed-similarity(I3, R2) = {tuple_edit_similarity(i3, r2):.3f}   <- ed prefers the wrong tuple")
print(f"  fms(I3, R1)           = {fms(i3, r1, weights, config):.3f}   <- fms prefers the true target")
print(f"  fms(I3, R2)           = {fms(i3, r2, weights, config):.3f}")

# --- §3.1 transformation cost ------------------------------------------------

banner("§3.1: transformation cost of u[1]='beoing corporation' -> v[1]='boeing company'")


class UnitWeights:
    def weight(self, token, column):
        return 1.0

    def frequency(self, token, column):
        return 1


cost = transformation_cost(
    ("beoing", "corporation"), ("boeing", "company"), 0, UnitWeights(), config
)
print(f"  tc = {cost:.3f}  (paper: 0.33 + 0.64 = 0.97 with unit weights)")
i3_dirty = ("Beoing Corporation", "Seattle", "WA", "98004")
print(f"  fms(I3', R1) with unit weights = "
      f"{fms(i3_dirty, r1, UnitWeights(), config):.3f}  (paper: 0.806)")

# --- §4.1 q-grams, min-hash, fmsapx ------------------------------------------

banner("§4.1: q-gram sets and min-hash signatures")
print(f"  QG3('boeing') = {sorted(qgram_set('boeing', 3))}  (paper: boe, oei, ein, ing)")
hasher = matcher.hasher  # q=3, H=2 coordinates, the config's seed
for token in ("beoing", "company", "seattle", "wa", "98004"):
    print(f"  mh('{token}') = {hasher.signature(token)}")
i4 = ("Company Beoing", "Seattle", None, "98014")
print(f"\n  fms(I4, R1)    = {fms(i4, r1, weights, config):.3f}")
print(f"  fmsapx(I4, R1) = {fms_apx(i4, r1, weights, config, hasher):.3f}"
      "   (ignores order + missing-column penalties: upper bound)")

# --- §4.2 the ETI relation (Table 3's analogue) -------------------------------

banner("§4.2: the Error Tolerant Index relation (cf. Table 3)")
eti, stats = matcher.eti, matcher.build_stats
print(f"  {'QGram':<10} {'Coord':>5} {'Column':>6} {'Freq':>4}  Tid-list")
for row in list(eti.relation.scan())[:14]:
    qgram, coordinate, column, frequency, tid_list = row
    print(f"  {qgram:<10} {coordinate:>5} {column:>6} {frequency:>4}  {tid_list}")
print(f"  ... ({stats.eti_rows} rows total, built from {stats.pre_eti_rows} pre-ETI rows)")

# --- §4.3 query processing ----------------------------------------------------

banner("§4.3: query processing for I1 = [Beoing Company, Seattle, WA, 98004]")
for strategy in ("basic", "osc"):
    result = matcher.match(("Beoing Company", "Seattle", "WA", "98004"), strategy=strategy)
    best = result.best
    print(
        f"  {strategy:<6}: match=R{best.tid} fms={best.similarity:.3f} "
        f"eti_lookups={result.stats.eti_lookups} "
        f"tids_processed={result.stats.tids_processed} "
        f"fetched={result.stats.candidates_fetched} "
        f"osc_succeeded={result.stats.osc_succeeded}"
    )

banner("§4.3.2: the OSC machinery, traced live")
with Tracer().trace("explain") as root:
    matcher.match(("Beoing Company", "Seattle", "WA", "98004"), strategy="osc")
for line in render_span(root):
    print(f"  {line}")

banner("§5.3: the token transposition extension rescues I4 = [Company Beoing, ...]")
swap_config = config.with_(allow_transpositions=True)
print(f"  fms(I4, R1) without transpositions = {fms(i4, r1, weights, config):.3f}")
print(f"  fms(I4, R1) with    transpositions = {fms(i4, r1, weights, swap_config):.3f}")
