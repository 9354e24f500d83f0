"""Persisting the ETI between input batches (§6.2.2.1).

"Because we persist the ETI as a standard indexed relation, we can use it
for subsequent batches of input tuples if the reference table does not
change."  This example builds a warehouse (reference relation + ETI) on
disk, snapshots it, reopens it in the same process the way a second ETL
session would, and matches a fresh batch without rebuilding anything.
It also demonstrates incremental ETI maintenance when the reference
relation does change between batches.

Run:  python examples/persistent_warehouse.py
"""

import os
import shutil
import tempfile
import time

from repro import FuzzyMatcher, MatchConfig
from repro.data.datasets import DatasetSpec, make_dataset
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers
from repro.eti.maintenance import EtiMaintainer

REFERENCE_SIZE = 3_000
BATCH_SIZE = 100

config = MatchConfig()
page_path = os.path.join(tempfile.mkdtemp(prefix="repro-wh-"), "warehouse.pages")

# --- Session 1: build the warehouse and snapshot it --------------------------

print("session 1: building the warehouse on disk...")
customers = generate_customers(REFERENCE_SIZE, seed=8, unique=True)
started = time.perf_counter()
matcher = FuzzyMatcher.build(
    CUSTOMER_COLUMNS, [(c.tid, c.values) for c in customers], config, path=page_path
)
matcher.database.close()
print(f"  built + snapshotted in {time.perf_counter() - started:.2f}s "
      f"({matcher.build_stats.eti_rows} ETI rows, pages in {page_path})")

# --- Session 2: reopen and serve a batch -------------------------------------

print("\nsession 2: reopening the snapshot (no rebuild)...")
started = time.perf_counter()
# The warehouse recorded the config it was built with; opening it with a
# different q, signature size, scheme or seed raises WarehouseConfigError.
matcher = FuzzyMatcher.open(page_path, config)
print(f"  reopened in {time.perf_counter() - started:.2f}s")

batch = make_dataset(
    [(c.tid, c.values) for c in customers],
    DatasetSpec("batch", (0.7, 0.4, 0.4, 0.4)),
    BATCH_SIZE,
    seed=21,
)
started = time.perf_counter()
correct = sum(
    1
    for dirty in batch.inputs
    if (result := matcher.match(dirty.values)).best is not None
    and result.best.tid == dirty.target_tid
)
elapsed = time.perf_counter() - started
print(f"  matched {BATCH_SIZE} inputs in {elapsed:.2f}s — "
      f"accuracy {correct / BATCH_SIZE:.1%}")

# --- Session 2b: the reference changes; maintain the ETI incrementally -------

print("\nsession 2b: appending new customers with incremental maintenance...")
# Passing the weights cache keeps IDF weights exact across mutations.
maintainer = EtiMaintainer(matcher.reference, matcher.eti, config, weights=matcher.weights)
new_customers = generate_customers(5, seed=404)
for customer in new_customers:
    maintainer.insert_tuple(REFERENCE_SIZE + customer.tid, customer.values)
probe = new_customers[0]
result = matcher.match(probe.values)
print(f"  new tuple {probe.values!r} matchable immediately: "
      f"tid={result.best.tid}, fms={result.best.similarity:.3f}")

matcher.save()
matcher.database.close()
print("\nsnapshot updated; a third session would reopen it the same way.")
shutil.rmtree(os.path.dirname(page_path))  # the demo's warehouse is scratch
