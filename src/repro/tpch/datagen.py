"""Deterministic scaled-down TPC-H data generator (a ``dbgen`` stand-in).

Row counts are 1/1000 of the official TPC-H sizes, so ``scale_factor=1``
yields ~6 000 lineitems — big enough to exercise every plan shape and the
mitosis optimizer, small enough for interactive runs.  A fixed-seed
``random.Random`` makes the database byte-identical across runs, which
keeps benchmark outputs and recorded traces reproducible.

Value distributions follow the TPC-H spec where it matters to query
selectivity: return flags, ship modes, market segments, date ranges
(1992-01-01 .. 1998-12-31 order dates), discounts 0.00-0.10, quantities
1-50, and foreign keys uniform over their parents.
"""

from __future__ import annotations

import datetime
import random
from typing import Dict, List

from repro.storage.catalog import Catalog
from repro.tpch.schema import create_tpch_schema

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
SHIP_INSTRUCTIONS = [
    "DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN",
]
CONTAINERS = ["SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX"]
TYPES = [
    "STANDARD ANODIZED TIN", "SMALL PLATED COPPER", "MEDIUM BURNISHED BRASS",
    "ECONOMY POLISHED STEEL", "PROMO BURNISHED NICKEL", "LARGE BRUSHED STEEL",
    "STANDARD POLISHED BRASS", "PROMO PLATED TIN", "ECONOMY ANODIZED NICKEL",
]
BRANDS = [f"Brand#{m}{n}" for m in range(1, 6) for n in range(1, 6)]
NOUNS = ["packages", "requests", "accounts", "deposits", "foxes", "pinto beans",
         "instructions", "dependencies", "theodolites", "platelets"]
VERBS = ["sleep", "haggle", "nag", "wake", "cajole", "dazzle", "integrate",
         "boost", "doze", "detect"]

#: Rows per table at scale_factor=1 (1/1000 of official TPC-H).
BASE_ROWS = {
    "supplier": 10,
    "part": 200,
    "partsupp": 800,
    "customer": 150,
    "orders": 1500,
    "lineitem": 6005,  # ~4 lineitems per order on average
}

_ORDER_DATE_START = datetime.date(1992, 1, 1)
_ORDER_DATE_DAYS = (datetime.date(1998, 8, 2) - _ORDER_DATE_START).days


def _comment(rng: random.Random) -> str:
    return (
        f"{rng.choice(NOUNS)} {rng.choice(VERBS)} "
        f"{rng.choice(['quickly', 'slowly', 'furiously', 'carefully'])}"
    )


def populate(catalog: Catalog, scale_factor: float = 0.1,
             seed: int = 19920101, schema: str = "sys",
             create: bool = True) -> Dict[str, int]:
    """Create (optionally) and fill the TPC-H tables.

    Args:
        catalog: target catalog.
        scale_factor: relative size; 1.0 → ~6 000 lineitems.
        seed: RNG seed; the same seed always produces the same database.
        schema: schema name (default ``sys``).
        create: create the tables first (set False if already created).

    Returns:
        Mapping of table name to rows inserted.
    """
    rng = random.Random(seed)
    if create:
        create_tpch_schema(catalog, schema)
    sch = catalog.schema(schema)
    counts: Dict[str, int] = {}

    # Each table accumulates its rows in a list and bulk-loads them with
    # one insert_many call: the RNG is consumed in exactly the same order
    # as the old per-row inserts, so generated data stays byte-identical.
    region = sch.table("region")
    region.insert_many(
        [key, name, _comment(rng)] for key, name in enumerate(REGIONS)
    )
    counts["region"] = len(REGIONS)

    nation = sch.table("nation")
    nation.insert_many(
        [key, name, regionkey, _comment(rng)]
        for key, (name, regionkey) in enumerate(NATIONS)
    )
    counts["nation"] = len(NATIONS)

    def rows_for(table: str) -> int:
        return max(1, int(round(BASE_ROWS[table] * scale_factor)))

    n_supplier = rows_for("supplier")
    supplier = sch.table("supplier")
    supplier.insert_many([
        key, f"Supplier#{key:09d}", f"addr-{key}",
        rng.randrange(len(NATIONS)),
        f"{rng.randrange(10, 35)}-{rng.randrange(100, 1000)}-"
        f"{rng.randrange(100, 1000)}-{rng.randrange(1000, 10000)}",
        round(rng.uniform(-999.99, 9999.99), 2), _comment(rng),
    ] for key in range(1, n_supplier + 1))
    counts["supplier"] = n_supplier

    n_part = rows_for("part")
    part = sch.table("part")
    part.insert_many([
        key, f"{rng.choice(NOUNS)} {rng.choice(VERBS)} part-{key}",
        f"Manufacturer#{rng.randrange(1, 6)}", rng.choice(BRANDS),
        rng.choice(TYPES), rng.randrange(1, 51), rng.choice(CONTAINERS),
        round(900 + (key % 200) + key / 10.0, 2), _comment(rng),
    ] for key in range(1, n_part + 1))
    counts["part"] = n_part

    n_partsupp = rows_for("partsupp")
    partsupp = sch.table("partsupp")
    partsupp.insert_many([
        (index % n_part) + 1,
        (index % n_supplier) + 1,
        rng.randrange(1, 10000),
        round(rng.uniform(1.0, 1000.0), 2),
        _comment(rng),
    ] for index in range(n_partsupp))
    counts["partsupp"] = n_partsupp

    n_customer = rows_for("customer")
    customer = sch.table("customer")
    customer.insert_many([
        key, f"Customer#{key:09d}", f"addr-{key}",
        rng.randrange(len(NATIONS)),
        f"{rng.randrange(10, 35)}-{rng.randrange(100, 1000)}-"
        f"{rng.randrange(100, 1000)}-{rng.randrange(1000, 10000)}",
        round(rng.uniform(-999.99, 9999.99), 2),
        rng.choice(SEGMENTS), _comment(rng),
    ] for key in range(1, n_customer + 1))
    counts["customer"] = n_customer

    n_orders = rows_for("orders")
    orders = sch.table("orders")
    order_dates: List[datetime.date] = []
    order_rows: List[list] = []
    for key in range(1, n_orders + 1):
        order_date = _ORDER_DATE_START + datetime.timedelta(
            days=rng.randrange(_ORDER_DATE_DAYS)
        )
        order_dates.append(order_date)
        order_rows.append([
            key, rng.randrange(1, n_customer + 1),
            rng.choice(["O", "F", "P"]),
            0.0,  # patched below from lineitems
            order_date, rng.choice(PRIORITIES),
            f"Clerk#{rng.randrange(1, 1000):09d}", 0, _comment(rng),
        ])
    orders.insert_many(order_rows)
    counts["orders"] = n_orders

    n_lineitem = rows_for("lineitem")
    lineitem = sch.table("lineitem")
    totals = [0.0] * (n_orders + 1)
    lineitem_rows: List[list] = []
    for index in range(n_lineitem):
        orderkey = rng.randrange(1, n_orders + 1)
        order_date = order_dates[orderkey - 1]
        ship_date = order_date + datetime.timedelta(days=rng.randrange(1, 122))
        commit_date = order_date + datetime.timedelta(days=rng.randrange(30, 91))
        receipt_date = ship_date + datetime.timedelta(days=rng.randrange(1, 31))
        quantity = float(rng.randrange(1, 51))
        extended = round(quantity * rng.uniform(900.0, 1100.0), 2)
        discount = round(rng.randrange(0, 11) / 100.0, 2)
        tax = round(rng.randrange(0, 9) / 100.0, 2)
        returnflag = (
            rng.choice(["R", "A"]) if receipt_date <= datetime.date(1995, 6, 17)
            else "N"
        )
        linestatus = "F" if ship_date <= datetime.date(1995, 6, 17) else "O"
        lineitem_rows.append([
            orderkey, rng.randrange(1, n_part + 1),
            rng.randrange(1, n_supplier + 1), (index % 7) + 1,
            quantity, extended, discount, tax, returnflag, linestatus,
            ship_date, commit_date, receipt_date,
            rng.choice(SHIP_INSTRUCTIONS), rng.choice(SHIP_MODES),
            _comment(rng),
        ])
        totals[orderkey] += extended * (1 + tax) * (1 - discount)
    lineitem.insert_many(lineitem_rows)
    counts["lineitem"] = n_lineitem

    total_bat = orders.column("o_totalprice").bat
    key_bat = orders.column("o_orderkey").bat
    for position, orderkey in enumerate(key_bat.tail):
        total_bat.tail[position] = round(totals[orderkey], 2)
    total_bat._invalidate_caches()  # in-place patch bypassed append/extend
    total_bat._marked(True)  # every row now holds a number

    return counts
