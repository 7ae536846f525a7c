"""Statistical-arithmetic checks over the extracted statistics model.

All sums run on exact Decimal values read digit-for-digit from the lexical
forms, in a context whose precision holds every sum of a variable's
statistics whole (see ``_exact_context``); the configured tolerance applies
only at the final comparison.
Variables whose relevant numbers are missing or unparseable are skipped
here; the datatype and range constraints report those defects.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

from ..catalog import Severity
from ..terms import Literal, Term
from ..violations import Finding, finding
from ..xsd import exact_decimal
from .models import (
    SUM_INVALID_CASES,
    SUM_MAXIMUM,
    SUM_MEAN,
    SUM_MINIMUM,
    SUM_NUMBER_OF_CASES,
    SUM_VALID_CASES,
    StatisticsModel,
    VariableStats,
)

HUNDRED = Decimal(100)
DEFAULT_TOLERANCE = Decimal("0.01")


def _exact_context(var: VariableStats) -> Context:
    """The decimal context for arithmetic over one variable's statistics.

    Its precision is the characters the lexical forms of those statistics
    write, plus one carry digit each and three for the 100 that percentages
    are held to. A sum or difference of numbers written without an exponent
    never needs more, so it is exact; one written with an exponent, such as
    ``"1e400000000"``, is rounded to that many digits instead of being
    expanded. The exponent range is the widest, and nothing traps, so no
    statistic can make the arithmetic raise.
    """
    lits = [lit for stat in var.summaries for lit in stat.values]
    for stats in var.catstats.values():
        for stat in stats:
            lits += stat.frequencies + stat.percentages + stat.cumulatives
    digits = sum(len(lit.lexical) + 1 for lit in lits) + 3
    return Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[])


def _first_decimal(lits: list[Literal]) -> Decimal | None:
    for lit in lits:
        value = exact_decimal(lit)
        if value is not None:
            return value
    return None


def _code_percentages(var: VariableStats) -> list[Decimal] | None:
    """One percentage per code, or None when any code lacks one."""
    out: list[Decimal] = []
    for code in var.codes:
        values = [
            v
            for stat in var.catstats.get(code, [])
            for v in (_first_decimal(stat.percentages),)
            if v is not None
        ]
        if not values:
            return None
        out.append(values[0])
    return out if out else None


def check_percentage_sum(
    stats: StatisticsModel,
    *,
    tolerance=DEFAULT_TOLERANCE,
) -> list[Finding]:
    tolerance = Decimal(str(tolerance))
    out = []
    for var in stats.variables:
        percentages = _code_percentages(var)
        if percentages is None:
            continue
        with localcontext(_exact_context(var)):
            total = sum(percentages, Decimal(0))
            off = abs(total - HUNDRED) > tolerance
        if off:
            out.append(
                finding(
                    var.node, str(total),
                    f"percentages over the code list sum to {total}, expected 100",
                )
            )
    return out


def _total_frequency(var: VariableStats, valid: bool | None) -> Decimal | None:
    """Sum of code frequencies, optionally restricted by the isValid flag.

    None when the variable has no codes, a relevant code lacks a frequency,
    or (for the filtered sums) a code lacks its isValid flag.
    """
    if not var.codes:
        return None
    frequencies = []
    for code in var.codes:
        flag = var.code_valid.get(code)
        if valid is not None:
            if flag is None:
                return None
            if flag is not valid:
                continue
        freq = [
            v
            for stat in var.catstats.get(code, [])
            for v in (_first_decimal(stat.frequencies),)
            if v is not None
        ]
        if not freq:
            return None
        frequencies.append(freq[0])
    with localcontext(_exact_context(var)):
        return sum(frequencies, Decimal(0))


def valid_frequency_sum(var: VariableStats) -> int | None:
    """The frequencies of the valid codes summed, as an integer: None where
    ``_total_frequency`` gives none, and where the integer would have more
    digits than the variable's statistics write, which only an exponent
    such as ``"1e400000000"`` can cause."""
    total = _total_frequency(var, True)
    if total is None or not total.is_finite():
        return None
    if total.adjusted() >= _exact_context(var).prec:
        return None
    return int(total)


def check_frequency_totals(
    ctx,
    stats: StatisticsModel,
    mode: str,
    *,
    country_property: str | None = None,
) -> list[Finding]:
    out = []
    for var in stats.variables:
        cases = _first_decimal(var.summary_values(SUM_NUMBER_OF_CASES))
        valid_cases = _first_decimal(var.summary_values(SUM_VALID_CASES))
        invalid_cases = _first_decimal(var.summary_values(SUM_INVALID_CASES))
        if mode == "sum-vs-total":
            total = _total_frequency(var, None)
            if total is None or cases is None:
                continue
            if total != cases:
                out.append(
                    finding(
                        var.node, f"{total}|{cases}",
                        f"code frequencies sum to {total} but the number of "
                        f"cases is {cases}",
                    )
                )
        elif mode == "valid-sum":
            total = _total_frequency(var, True)
            if total is None or valid_cases is None:
                continue
            if total != valid_cases:
                out.append(
                    finding(
                        var.node, f"{total}|{valid_cases}",
                        f"frequencies of valid codes sum to {total} but the "
                        f"valid-cases statistic is {valid_cases}",
                    )
                )
        elif mode == "invalid-sum":
            total = _total_frequency(var, False)
            if total is None or invalid_cases is None:
                continue
            if total != invalid_cases:
                out.append(
                    finding(
                        var.node, f"{total}|{invalid_cases}",
                        f"frequencies of invalid codes sum to {total} but the "
                        f"invalid-cases statistic is {invalid_cases}",
                    )
                )
        elif mode == "valid-plus-invalid":
            if cases is None or valid_cases is None or invalid_cases is None:
                continue
            with localcontext(_exact_context(var)):
                both = valid_cases + invalid_cases
            if both != cases:
                out.append(
                    finding(
                        var.node,
                        f"{valid_cases}+{invalid_cases}|{cases}",
                        f"valid ({valid_cases}) plus invalid ({invalid_cases}) "
                        f"cases differ from the number of cases ({cases})",
                    )
                )
        else:  # country-totals
            out.extend(_country_totals(var, country_property, ctx))
    return out


def _country_totals(
    var: VariableStats, country_property: str | None, ctx
) -> list[Finding]:
    """Per-country number-of-cases totals must sum to the 'All' total.

    Only runs when the catalog configures the country annotation property;
    statistics without country annotations are skipped.
    """
    if country_property is None or ctx is None:
        return []
    per_country: dict[str, Decimal] = {}
    all_total: Decimal | None = None
    with localcontext(_exact_context(var)):
        for stat in var.summaries:
            if SUM_NUMBER_OF_CASES not in stat.types:
                continue
            countries = [
                o.lexical for o in ctx.literal_objects(stat.node, country_property)
            ]
            value = _first_decimal(stat.values)
            if value is None or not countries:
                continue
            for country in countries:
                if country == "All":
                    all_total = value
                else:
                    per_country[country] = per_country.get(country, Decimal(0)) + value
        if all_total is None or not per_country:
            return []
        total = sum(per_country.values(), Decimal(0))
    if total != all_total:
        return [
            finding(
                var.node, f"{total}|{all_total}",
                f"per-country case counts sum to {total} but the 'All' total "
                f"is {all_total}",
            )
        ]
    return []


def check_min_max(
    stats: StatisticsModel,
) -> list[Finding]:
    out = []
    for var in stats.variables:
        minimum = _first_decimal(var.summary_values(SUM_MINIMUM))
        maximum = _first_decimal(var.summary_values(SUM_MAXIMUM))
        if minimum is None or maximum is None:
            continue
        if minimum > maximum:
            out.append(
                finding(
                    var.node, f"{minimum}|{maximum}",
                    f"minimum summary statistic ({minimum}) exceeds the "
                    f"maximum ({maximum})",
                )
            )
    return out


def check_cumulative_chain(
    stats: StatisticsModel,
    mode: str,
    *,
    tolerance=DEFAULT_TOLERANCE,
) -> list[Finding]:
    """chain: cum(i) = cum(i-1) + pct(i) within tolerance (cum(0) = pct(0));
    last-100: the final cumulative percentage is 100 within tolerance.

    Cumulative checks need an ordered code list; variables carrying
    cumulative percentages over an unordered list get an ordering-required
    note from the chain mode instead of a numeric verdict.
    """
    tolerance = Decimal(str(tolerance))
    out = []
    for var in stats.variables:
        cums: list[tuple[Term, Decimal]] = []
        pcts: list[Decimal | None] = []
        has_cum = False
        for code in var.codes:
            cum = None
            pct = None
            for stat in var.catstats.get(code, []):
                if cum is None:
                    cum = _first_decimal(stat.cumulatives)
                if pct is None:
                    pct = _first_decimal(stat.percentages)
            if cum is not None:
                has_cum = True
            cums.append((code, cum))  # type: ignore[arg-type]
            pcts.append(pct)
        if not has_cum:
            continue
        if not var.ordered:
            if mode == "chain":
                out.append(
                    Finding(
                        str(var.node), "unordered",
                        "cumulative percentages require an ordered code list "
                        "(skos:OrderedCollection with skos:memberList)",
                        severity=Severity.INFO,
                    )
                )
            continue
        if any(c is None for _, c in cums) or any(p is None for p in pcts):
            continue
        with localcontext(_exact_context(var)):
            if mode == "chain":
                previous = Decimal(0)
                for (code, cum), pct in zip(cums, pcts):
                    expected = previous + pct  # type: ignore[operator]
                    if abs(cum - expected) > tolerance:
                        out.append(
                            finding(
                                var.node, f"{code}|{cum}",
                                f"cumulative percentage at code {code} is {cum}, "
                                f"expected {expected}",
                            )
                        )
                    previous = cum
            else:  # last-100
                last_cum = cums[-1][1]
                if abs(last_cum - HUNDRED) > tolerance:
                    out.append(
                        finding(
                            var.node, str(last_cum),
                            f"cumulative percentage of the last code is {last_cum}, "
                            "expected 100",
                        )
                    )
    return out


def check_statistic_applicability(
    stats: StatisticsModel,
    mode: str,
) -> list[Finding]:
    """string-stats: no minimum/maximum/mean for string-typed variables;
    categorical-mean: no mean for code-list-represented variables."""
    from ..namespaces import XSD_STRING, compact

    out = []
    for var in stats.variables:
        if mode == "string-stats":
            if var.repr_kind != "datatype" or var.repr_datatype != XSD_STRING:
                continue
            inapplicable = (SUM_MINIMUM, SUM_MAXIMUM, SUM_MEAN)
        else:  # categorical-mean
            if var.repr_kind not in ("ordered", "scheme"):
                continue
            inapplicable = (SUM_MEAN,)
        for type_iri in inapplicable:
            for node in var.summary_nodes(type_iri):
                out.append(
                    finding(
                        var.node, str(node),
                        f"summary statistic {compact(type_iri)} cannot be "
                        f"computed for this variable's representation", (type_iri,),
                    )
                )
    return out
