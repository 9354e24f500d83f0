"""Quickstart: fuzzy-match dirty organization tuples against a reference.

Reproduces the paper's running example (Tables 1 and 2): a three-tuple
organization reference relation, four erroneous inputs, and the fuzzy match
operation resolving each input to its intended target.

Run:  python examples/quickstart.py
"""

from repro import FuzzyMatcher, MatchConfig

# --- 1. Load the clean reference relation (Table 1) and build the index ---
#
# ``FuzzyMatcher.build`` loads the relation, computes the IDF token weights
# (the token-frequency cache) and builds the Error Tolerant Index (a plain
# relation with a clustered B+-tree index) that makes retrieval fast.

config = MatchConfig(q=3, signature_size=2)  # the paper's worked-example setting
matcher = FuzzyMatcher.build(
    ["org_name", "city", "state", "zipcode"],
    [
        (1, ("Boeing Company", "Seattle", "WA", "98004")),
        (2, ("Bon Corporation", "Seattle", "WA", "98014")),
        (3, ("Companions", "Seattle", "WA", "98024")),
    ],
    config,
)
build_stats = matcher.build_stats
print(f"ETI built: {build_stats.eti_rows} rows from {build_stats.pre_eti_rows} pre-ETI rows\n")

# --- 2. Match the dirty inputs (Table 2) ----------------------------------

inputs = [
    ("Beoing Company", "Seattle", "WA", "98004"),     # I1: spelling error
    ("Beoing Co.", "Seattle", "WA", "98004"),          # I2: spelling + abbreviation
    ("Boeing Corporation", "Seattle", "WA", "98004"),  # I3: token replacement
    ("Company Beoing", "Seattle", None, "98014"),      # I4: transposition + missing
]

print(f"{'input tuple':<42} {'match':<18} {'fms':>6}  lookups fetched osc")
for values in inputs:
    result = matcher.match(values)
    best = result.best
    stats = result.stats
    name = best.values[0] if best else "(no match)"
    similarity = f"{best.similarity:.3f}" if best else "-"
    print(
        f"{str(values[0]):<42} {name:<18} {similarity:>6}  "
        f"{stats.eti_lookups:>7} {stats.candidates_fetched:>7} "
        f"{'yes' if stats.osc_succeeded else 'no':>3}"
    )

# --- 3. The K-fuzzy-match extension ---------------------------------------

print("\nTop-3 matches for 'Beoing Company' with minimum similarity 0.2:")
result = matcher.match(
    ("Beoing Company", "Seattle", "WA", "98004"), k=3, min_similarity=0.2
)
for match in result.matches:
    print(f"  tid={match.tid}  fms={match.similarity:.3f}  {match.values}")
