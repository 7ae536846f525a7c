"""Statistical-arithmetic checks over the extracted statistics model.

All sums run on exact Decimal values read digit-for-digit from the lexical
forms; the configured tolerance applies only at the final comparison.
Variables whose relevant numbers are missing or unparseable are skipped
here; the datatype and range constraints report those defects.
"""

from __future__ import annotations

from decimal import Decimal

from ..catalog import Severity
from ..terms import Literal, Term
from ..violations import Violation, make_violation
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
    cid: str = "percentage-sum",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    tolerance = Decimal(str(tolerance))
    out = []
    for var in stats.variables:
        percentages = _code_percentages(var)
        if percentages is None:
            continue
        total = sum(percentages, Decimal(0))
        if abs(total - HUNDRED) > tolerance:
            out.append(
                make_violation(
                    cid, severity, var.node, str(total),
                    f"percentages over the code list sum to {total}, expected 100",
                    (),
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
    total = Decimal(0)
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
        total += freq[0]
    return total


def check_frequency_totals(
    ctx,
    stats: StatisticsModel,
    mode: str,
    *,
    country_property: str | None = None,
    cid: str = "frequency-totals",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
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
                    make_violation(
                        cid, severity, var.node, f"{total}|{cases}",
                        f"code frequencies sum to {total} but the number of "
                        f"cases is {cases}", (),
                    )
                )
        elif mode == "valid-sum":
            total = _total_frequency(var, True)
            if total is None or valid_cases is None:
                continue
            if total != valid_cases:
                out.append(
                    make_violation(
                        cid, severity, var.node, f"{total}|{valid_cases}",
                        f"frequencies of valid codes sum to {total} but the "
                        f"valid-cases statistic is {valid_cases}", (),
                    )
                )
        elif mode == "invalid-sum":
            total = _total_frequency(var, False)
            if total is None or invalid_cases is None:
                continue
            if total != invalid_cases:
                out.append(
                    make_violation(
                        cid, severity, var.node, f"{total}|{invalid_cases}",
                        f"frequencies of invalid codes sum to {total} but the "
                        f"invalid-cases statistic is {invalid_cases}", (),
                    )
                )
        elif mode == "valid-plus-invalid":
            if cases is None or valid_cases is None or invalid_cases is None:
                continue
            if valid_cases + invalid_cases != cases:
                out.append(
                    make_violation(
                        cid, severity, var.node,
                        f"{valid_cases}+{invalid_cases}|{cases}",
                        f"valid ({valid_cases}) plus invalid ({invalid_cases}) "
                        f"cases differ from the number of cases ({cases})", (),
                    )
                )
        elif mode == "country-totals":
            out.extend(
                _country_totals(var, country_property, ctx, cid, severity)
            )
        else:
            raise ValueError(f"unknown frequency-totals mode {mode!r}")
    return out


def _country_totals(
    var: VariableStats, country_property: str | None, ctx, cid: str, severity: Severity
) -> list[Violation]:
    """Per-country number-of-cases totals must sum to the 'All' total.

    Only runs when the catalog configures the country annotation property;
    statistics without country annotations are skipped.
    """
    if country_property is None or ctx is None:
        return []
    per_country: dict[str, Decimal] = {}
    all_total: Decimal | None = None
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
            make_violation(
                cid, severity, var.node, f"{total}|{all_total}",
                f"per-country case counts sum to {total} but the 'All' total "
                f"is {all_total}", (),
            )
        ]
    return []


def check_min_max(
    stats: StatisticsModel,
    *,
    cid: str = "min-max-consistency",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    out = []
    for var in stats.variables:
        minimum = _first_decimal(var.summary_values(SUM_MINIMUM))
        maximum = _first_decimal(var.summary_values(SUM_MAXIMUM))
        if minimum is None or maximum is None:
            continue
        if minimum > maximum:
            out.append(
                make_violation(
                    cid, severity, var.node, f"{minimum}|{maximum}",
                    f"minimum summary statistic ({minimum}) exceeds the "
                    f"maximum ({maximum})", (),
                )
            )
    return out


def check_cumulative_chain(
    stats: StatisticsModel,
    mode: str,
    *,
    tolerance=DEFAULT_TOLERANCE,
    cid: str = "cumulative-chain",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
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
                    make_violation(
                        cid, Severity.INFO, var.node, "unordered",
                        "cumulative percentages require an ordered code list "
                        "(skos:OrderedCollection with skos:memberList)", (),
                    )
                )
            continue
        if any(c is None for _, c in cums) or any(p is None for p in pcts):
            continue
        if mode == "chain":
            previous = Decimal(0)
            for (code, cum), pct in zip(cums, pcts):
                expected = previous + pct  # type: ignore[operator]
                if abs(cum - expected) > tolerance:
                    out.append(
                        make_violation(
                            cid, severity, var.node, f"{code}|{cum}",
                            f"cumulative percentage at code {code} is {cum}, "
                            f"expected {expected}", (),
                        )
                    )
                previous = cum
        elif mode == "last-100":
            last_cum = cums[-1][1]
            if abs(last_cum - HUNDRED) > tolerance:
                out.append(
                    make_violation(
                        cid, severity, var.node, str(last_cum),
                        f"cumulative percentage of the last code is {last_cum}, "
                        "expected 100", (),
                    )
                )
        else:
            raise ValueError(f"unknown cumulative-chain mode {mode!r}")
    return out


def check_statistic_applicability(
    stats: StatisticsModel,
    mode: str,
    *,
    cid: str = "statistic-applicability",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    """string-stats: no minimum/maximum/mean for string-typed variables;
    categorical-mean: no mean for code-list-represented variables."""
    from ..namespaces import XSD_STRING, compact

    out = []
    for var in stats.variables:
        if mode == "string-stats":
            if var.repr_kind != "datatype" or var.repr_datatype != XSD_STRING:
                continue
            inapplicable = (SUM_MINIMUM, SUM_MAXIMUM, SUM_MEAN)
        elif mode == "categorical-mean":
            if var.repr_kind not in ("ordered", "scheme"):
                continue
            inapplicable = (SUM_MEAN,)
        else:
            raise ValueError(f"unknown statistic-applicability mode {mode!r}")
        for type_iri in inapplicable:
            for node in var.summary_nodes(type_iri):
                out.append(
                    make_violation(
                        cid, severity, var.node, str(node),
                        f"summary statistic {compact(type_iri)} cannot be "
                        f"computed for this variable's representation", (type_iri,),
                    )
                )
    return out
