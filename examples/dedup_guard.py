"""Preventing fuzzy-duplicate proliferation at insert time.

The paper's introduction: "A fuzzy match operation that is resilient to
input errors can effectively prevent the proliferation of fuzzy duplicates
in a relation."  This example implements that guard: a stream of new
customer registrations — some genuinely new, some error-laden re-entries of
existing customers — is screened with the fuzzy match operation before
being admitted to the warehouse.

Run:  python examples/dedup_guard.py
"""

import random

from repro import FuzzyMatcher, MatchConfig
from repro.data.errors import ErrorModel
from repro.data.generator import CUSTOMER_COLUMNS, CustomerGenerator, generate_customers

REFERENCE_SIZE = 3_000
DUPLICATE_THRESHOLD = 0.80
STREAM_SIZE = 200

rng = random.Random(99)

# Existing warehouse contents.
existing = generate_customers(REFERENCE_SIZE, seed=5)
matcher = FuzzyMatcher.build(
    CUSTOMER_COLUMNS, [(c.tid, c.values) for c in existing], MatchConfig()
)

# A registration stream: half re-entries of existing customers (with data
# entry errors), half genuinely new customers.
error_model = ErrorModel((0.6, 0.3, 0.3, 0.3), seed=13)
new_customers = list(
    CustomerGenerator(seed=6006).generate(STREAM_SIZE // 2, start_tid=10**6)
)

stream = []
for i in range(STREAM_SIZE):
    if i % 2 == 0:
        seed_customer = existing[rng.randrange(len(existing))]
        dirty, _ = error_model.corrupt(seed_customer.values)
        stream.append(("re-entry", seed_customer.tid, dirty))
    else:
        customer = new_customers[i // 2]
        stream.append(("new", None, customer.values))
rng.shuffle(stream)

# Screen the stream.
true_positive = false_positive = true_negative = false_negative = 0
for kind, source_tid, values in stream:
    result = matcher.match(values)
    best = result.best
    flagged = best is not None and best.similarity >= DUPLICATE_THRESHOLD
    if kind == "re-entry":
        if flagged and best.tid == source_tid:
            true_positive += 1
        elif flagged:
            false_positive += 1  # flagged, but against the wrong customer
        else:
            false_negative += 1  # duplicate slipped through
    else:
        if flagged:
            false_positive += 1
        else:
            true_negative += 1

print(f"Screened {STREAM_SIZE} registrations against {REFERENCE_SIZE} customers "
      f"(duplicate threshold fms >= {DUPLICATE_THRESHOLD})\n")
print(f"  duplicates caught (correct customer):  {true_positive}")
print(f"  duplicates missed:                     {false_negative}")
print(f"  wrongly flagged:                       {false_positive}")
print(f"  genuinely new, admitted:               {true_negative}")
caught = true_positive + false_negative
if caught:
    print(f"\n  guard recall on re-entries: {true_positive / caught:.1%}")
