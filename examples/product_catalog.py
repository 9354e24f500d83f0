"""Validating distributor sales records against a Product relation.

The paper's opening scenario: "product name and description fields in a
sales record from a distributor must match the pre-recorded name and
description fields in a product reference relation."  Part numbers are the
high-IDF tokens here — a single-character typo in 'KX-4810-A' must not
stop the record from matching, which is precisely what the paper's
erroneous-token handling (unseen tokens get the column-average weight, and
q-gram signatures still route candidates) provides.

Run:  python examples/product_catalog.py
"""

import random

from repro import FuzzyMatcher, MatchConfig
from repro.data.errors import ErrorModel
from repro.data.products import PRODUCT_COLUMNS, generate_products

CATALOG_SIZE = 4_000
FEED_SIZE = 250
ACCEPT_THRESHOLD = 0.65

# --- The enterprise's Product relation ---------------------------------------

products = generate_products(CATALOG_SIZE, seed=4242)
matcher = FuzzyMatcher.build(
    PRODUCT_COLUMNS, [(p.tid, p.values) for p in products], MatchConfig()
)
print(f"catalog: {CATALOG_SIZE} products, ETI {matcher.build_stats.eti_rows} rows")

# --- A distributor feed with data-entry errors --------------------------------
#
# Part numbers get typos, names get abbreviated/merged, the category is
# frequently missing — name_column=1 lets the part number go NULL too.

error_model = ErrorModel(
    (0.5, 0.6, 0.5),
    name_column=1,
    seed=11,
)
rng = random.Random(33)
feed = []
for product in rng.sample(products, FEED_SIZE):
    dirty, report = error_model.corrupt(product.values)
    feed.append((product.tid, dirty, len(report.errors)))

# --- Validate ------------------------------------------------------------------

validated = rejected = correct = 0
for true_tid, values, _ in feed:
    result = matcher.match(values)
    best = result.best
    if best is None or best.similarity < ACCEPT_THRESHOLD:
        rejected += 1
        continue
    validated += 1
    if best.tid == true_tid:
        correct += 1

print(f"\nfeed: {FEED_SIZE} sales records "
      f"({sum(1 for _, _, e in feed if e)} carry at least one error)")
print(f"  validated against the catalog: {validated}")
print(f"  routed to manual review:       {rejected}")
print(f"  validation precision:          {correct / max(validated, 1):.1%}")

# --- Show one interesting case -------------------------------------------------

print("\nsample corrections:")
shown = 0
for true_tid, values, error_count in feed:
    if error_count < 2:
        continue
    result = matcher.match(values)
    if result.best is None or result.best.tid != true_tid:
        continue
    print(f"  {values!r}")
    print(f"    -> {result.best.values!r}  (fms {result.best.similarity:.3f})")
    shown += 1
    if shown == 3:
        break
