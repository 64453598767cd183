"""The paper's TPC-H workload: queries 12, 13, 14 and 17.

These are the four TPC-H queries that join exactly two tables (paper §4.2),
which is what lets the experiment place each table in a different engine
(Hive and PostgreSQL).  Each query is a :class:`QueryTemplate` — SQL text
with named substitution parameters plus a spec-shaped parameter generator,
so a workload can draw many distinct-but-similar query instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from string import Formatter
from typing import Callable

from repro.common.errors import ValidationError
from repro.common.rng import RngStream
from repro.tpch import text


@dataclass(frozen=True)
class QueryTemplate:
    """A parameterised TPC-H query."""

    key: str
    title: str
    tables: tuple[str, str]
    template: str
    parameter_generator: Callable[[RngStream], dict]

    def render(self, params: dict | None = None, rng: RngStream | None = None) -> str:
        """Substitute ``params`` (or draw them from ``rng``) into the SQL.

        The parameters pass :meth:`check_params` first, so a value can
        only ever fill its slot, never rewrite the query around it.
        """
        if params is None:
            if rng is None:
                raise ValidationError("render() needs params or an rng to draw them")
            params = self.parameter_generator(rng)
        self.check_params(params)
        return self.template.format(**params)

    @cached_property
    def _slots(self) -> dict[str, bool]:
        """Placeholder name -> whether every occurrence sits inside a
        single-quoted SQL literal (``''`` escapes keep the parity)."""
        slots: dict[str, bool] = {}
        quoted = False
        for literal, name, _spec, _conversion in Formatter().parse(self.template):
            quoted ^= literal.count("'") % 2 == 1
            if name is not None:
                slots[name] = slots.get(name, True) and quoted
        return slots

    def check_params(self, params) -> None:
        """Reject parameters that could not fill this template's slots.

        The keys must be exactly the placeholders.  A value is a finite
        ``int``/``float`` (not a ``bool``) written without an exponent,
        or a ``str`` free of ``'`` whose every slot is inside a quoted
        literal such as ``'{testname}'``.
        """
        slots = self._slots
        if not isinstance(params, dict) or set(params) != set(slots):
            raise ValidationError(
                f"{self.key!r} takes a dict of parameters {sorted(slots)}, got {params!r}"
            )
        for name, value in params.items():
            if isinstance(value, str):
                fits = slots[name] and "'" not in value
            else:
                fits = (
                    isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    and _plain_number(value)
                )
            if not fits:
                slot = "a quoted" if slots[name] else "an unquoted"
                raise ValidationError(
                    f"parameter {name!r} of {self.key!r} cannot fill {slot} slot: {value!r}"
                )

    def sample_params(self, rng: RngStream) -> dict:
        return self.parameter_generator(rng)


def _plain_number(value: int | float) -> bool:
    """Finite, and rendered as a plain decimal the SQL lexer reads back
    (``str`` switches floats to exponent notation at the extremes)."""
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False
    return finite and "e" not in str(value)


def _q12_params(rng: RngStream) -> dict:
    modes = list(text.SHIP_MODES)
    first = modes.pop(int(rng.integers(0, len(modes))))
    second = modes.pop(int(rng.integers(0, len(modes))))
    year = int(rng.integers(1993, 1998))
    return {"shipmode1": first, "shipmode2": second, "year": year}


query_12 = QueryTemplate(
    key="q12",
    title="Shipping Modes and Order Priority",
    tables=("orders", "lineitem"),
    template="""
select
    l_shipmode,
    sum(case when o_orderpriority = '1-URGENT' or o_orderpriority = '2-HIGH'
        then 1 else 0 end) as high_line_count,
    sum(case when o_orderpriority <> '1-URGENT' and o_orderpriority <> '2-HIGH'
        then 1 else 0 end) as low_line_count
from
    orders,
    lineitem
where
    o_orderkey = l_orderkey
    and l_shipmode in ('{shipmode1}', '{shipmode2}')
    and l_commitdate < l_receiptdate
    and l_shipdate < l_commitdate
    and l_receiptdate >= date '{year}-01-01'
    and l_receiptdate < date '{year}-01-01' + interval '1' year
group by
    l_shipmode
order by
    l_shipmode
""",
    parameter_generator=_q12_params,
)


def _q13_params(rng: RngStream) -> dict:
    word1 = ("special", "pending", "unusual", "express")[int(rng.integers(0, 4))]
    word2 = ("packages", "requests", "accounts", "deposits")[int(rng.integers(0, 4))]
    return {"word1": word1, "word2": word2}


query_13 = QueryTemplate(
    key="q13",
    title="Customer Distribution",
    tables=("customer", "orders"),
    template="""
select
    c_count,
    count(*) as custdist
from
    (
        select
            c_custkey,
            count(o_orderkey) as c_count
        from
            customer left outer join orders on
                c_custkey = o_custkey
                and o_comment not like '%{word1}%{word2}%'
        group by
            c_custkey
    ) as c_orders (c_custkey, c_count)
group by
    c_count
order by
    custdist desc,
    c_count desc
""",
    parameter_generator=_q13_params,
)


def _q14_params(rng: RngStream) -> dict:
    year = int(rng.integers(1993, 1998))
    month = int(rng.integers(1, 13))
    return {"date": f"{year}-{month:02d}-01"}


query_14 = QueryTemplate(
    key="q14",
    title="Promotion Effect",
    tables=("lineitem", "part"),
    template="""
select
    100.00 * sum(case when p_type like 'PROMO%'
        then l_extendedprice * (1 - l_discount) else 0 end)
        / sum(l_extendedprice * (1 - l_discount)) as promo_revenue
from
    lineitem,
    part
where
    l_partkey = p_partkey
    and l_shipdate >= date '{date}'
    and l_shipdate < date '{date}' + interval '1' month
""",
    parameter_generator=_q14_params,
)


def _q17_params(rng: RngStream) -> dict:
    brand = f"Brand#{int(rng.integers(1, 6))}{int(rng.integers(1, 6))}"
    container = text.CONTAINERS[int(rng.integers(0, len(text.CONTAINERS)))]
    return {"brand": brand, "container": container}


query_17 = QueryTemplate(
    key="q17",
    title="Small-Quantity-Order Revenue",
    tables=("lineitem", "part"),
    template="""
select
    sum(l_extendedprice) / 7.0 as avg_yearly
from
    lineitem,
    part
where
    p_partkey = l_partkey
    and p_brand = '{brand}'
    and p_container = '{container}'
    and l_quantity < (
        select
            0.2 * avg(l_quantity)
        from
            lineitem
        where
            l_partkey = p_partkey
    )
""",
    parameter_generator=_q17_params,
)

#: The paper's workload, keyed by query id.
TPCH_QUERIES: dict[str, QueryTemplate] = {
    "q12": query_12,
    "q13": query_13,
    "q14": query_14,
    "q17": query_17,
}


def _q3_params(rng: RngStream) -> dict:
    segments = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
    day = int(rng.integers(1, 29))
    return {"segment": segments[int(rng.integers(0, len(segments)))],
            "date": f"1995-03-{day:02d}"}


#: Extension beyond the paper's two-table workload: TPC-H Q3 joins three
#: tables across both engines (customer+orders on different sides of the
#: federation than lineitem), exercising multi-join planning, pushdown
#: and the executor's hash-join chains.
query_3 = QueryTemplate(
    key="q3",
    title="Shipping Priority (3-way join extension)",
    tables=("customer", "orders", "lineitem"),
    template="""
select
    l_orderkey,
    sum(l_extendedprice * (1 - l_discount)) as revenue,
    o_orderdate,
    o_shippriority
from
    customer,
    orders,
    lineitem
where
    c_mktsegment = '{segment}'
    and c_custkey = o_custkey
    and l_orderkey = o_orderkey
    and o_orderdate < date '{date}'
    and l_shipdate > date '{date}'
group by
    l_orderkey,
    o_orderdate,
    o_shippriority
order by
    revenue desc,
    o_orderdate
limit 10
""",
    parameter_generator=_q3_params,
)

#: Paper workload + extensions.
EXTENDED_QUERIES: dict[str, QueryTemplate] = {**TPCH_QUERIES, "q3": query_3}
