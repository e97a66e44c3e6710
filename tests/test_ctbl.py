"""Degree-table ingestion: schema validation, order checks, bundled data."""

import json
import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcd.ctbl import (
    DegreeTable,
    bundled_names,
    bundled_table,
    cd_pprime,
    load_degree_table,
    pgl2_degree_set,
)
from ppcd.partitions import TRIAL_DIVISION_LIMIT, require_prime


def doc(**kwargs):
    return json.dumps(kwargs)


class TestLoader:
    def test_multiset_form(self):
        table = load_degree_table(
            doc(name="A5", order=60, complete=True, degrees=[[1, 1], [3, 2], [4, 1], [5, 1]])
        )
        assert table.name == "A5"
        assert table.order == 60
        assert table.complete
        assert table.degrees == ((1, 1), (3, 2), (4, 1), (5, 1))
        assert table.degree_set == frozenset({1, 3, 4, 5})

    def test_set_form(self):
        table = load_degree_table(doc(degree_set=[1, 6, 7, 8], name="PGL2(7)"))
        assert table.degree_set == frozenset({1, 6, 7, 8})
        assert not table.complete
        assert table.degrees is None

    def test_order_optional(self):
        table = load_degree_table(doc(name="X", complete=False, degrees=[[2, 3]]))
        assert table.order is None

    def test_sum_of_squares_mismatch(self):
        with pytest.raises(ValueError, match="sum-of-squares"):
            load_degree_table(
                doc(name="A5", order=61, complete=True, degrees=[[1, 1], [3, 2], [4, 1], [5, 1]])
            )

    def test_mismatch_message_names_the_total(self):
        with pytest.raises(ValueError) as info:
            load_degree_table(
                doc(name="A5", order=61, complete=True, degrees=[[1, 1], [3, 2], [4, 1], [5, 1]])
            )
        assert str(info.value) == "sum-of-squares mismatch for A5: degrees give 60, order says 61"

    def test_mismatch_with_a_total_too_long_to_print(self):
        # a 2 200-digit degree parses, but its square has 4 400 digits,
        # past the interpreter's limit for str() of an int
        degree = 10**2200 - 1
        with pytest.raises(ValueError) as info:
            load_degree_table(doc(name="X", complete=True, degrees=[[degree, 1]], order=5))
        bits = (degree * degree).bit_length()
        assert str(info.value) == (
            f"sum-of-squares mismatch for X: degrees give an integer of {bits} bits, "
            "order says 5"
        )

    def test_incomplete_table_skips_order_check(self):
        load_degree_table(doc(name="frag", order=60, complete=False, degrees=[[3, 2]]))

    @pytest.mark.parametrize(
        "bad",
        [
            "not json",
            "[1,2,3]",
            doc(name="X", complete=True, degrees=[[1, 1]], extra=1),
            doc(name="X", complete=True),
            doc(name="X", degrees=[[1, 1]]),
            doc(complete=True, degrees=[[1, 1]]),
            doc(name="X", complete="yes", degrees=[[1, 1]]),
            doc(name="X", complete=True, degrees=[]),
            doc(name="X", complete=True, degrees=[[1, 1, 1]]),
            doc(name="X", complete=True, degrees=[[0, 1]]),
            doc(name="X", complete=True, degrees=[[1, 0]]),
            doc(name="X", complete=True, degrees=[[2, 1], [2, 1]]),
            doc(name="X", complete=True, degrees=[[1, 1]], order=-5),
            doc(degree_set=[]),
            doc(degree_set=[1, 2], complete=True),
            doc(degree_set=[1, 2], name=7),
        ],
    )
    def test_schema_violations(self, bad):
        with pytest.raises(ValueError):
            load_degree_table(bad)


def _loads_or_value_error(text: str) -> DegreeTable | None:
    """The loader's contract: a DegreeTable or a ValueError, nothing else."""
    try:
        table = load_degree_table(text)
    except ValueError:
        return None
    assert isinstance(table, DegreeTable)
    return table


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                               max_size=4),
    max_leaves=12,
)
_ints_or_bools = st.integers(min_value=-2, max_value=10**6) | st.booleans()
_multiset_docs = st.fixed_dictionaries(
    {"name": st.text(max_size=5) | _json_values,
     "complete": st.booleans() | _json_values,
     "degrees": st.lists(st.lists(_ints_or_bools, min_size=1, max_size=3), max_size=5)
                | _json_values},
    optional={"order": _ints_or_bools | _json_values},
)
_set_docs = st.fixed_dictionaries(
    {"degree_set": st.lists(_ints_or_bools, max_size=6) | _json_values},
    optional={"name": st.text(max_size=5) | _json_values},
)
# where an adversarial value goes: the whole document, a set member, a
# degree, a multiplicity, the order
_PLACES = ["{}", '{{"degree_set": [{}]}}',
           '{{"name": "X", "complete": true, "degrees": [[{}, 1]]}}',
           '{{"name": "X", "complete": true, "degrees": [[1, {}]]}}',
           '{{"name": "X", "complete": true, "degrees": [[1, 1]], "order": {}}}']
_VALID = [resources.files("ppcd").joinpath("data", f).read_text()
          for f in ("a5.json", "s5.json", "a6.json")]


class TestLoaderProperties:
    """Malformed and adversarial documents: load or raise ValueError."""

    @given(st.text())
    @settings(max_examples=200, deadline=None)
    def test_any_text(self, text):
        _loads_or_value_error(text)

    @given(st.sampled_from(_VALID), st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncated_documents(self, document, data):
        cut = data.draw(st.integers(min_value=0, max_value=len(document.rstrip()) - 1))
        assert _loads_or_value_error(document[:cut]) is None

    @given(_multiset_docs | _set_docs | _json_values)
    @settings(max_examples=300, deadline=None)
    def test_wrong_types(self, value):
        table = _loads_or_value_error(json.dumps(value))
        if table is not None:
            assert all(type(d) is int and d > 0 for d in table.degree_set)

    @pytest.mark.parametrize("place", _PLACES[1:])
    @pytest.mark.parametrize("flag", ["true", "false"])
    def test_bools_are_not_ints(self, place, flag):
        with pytest.raises(ValueError, match="schema violation"):
            load_degree_table(place.format(flag))

    @given(st.integers(min_value=1, max_value=3_000) | st.integers(min_value=1, max_value=200_000),
           st.sampled_from("[{"), st.sampled_from(_PLACES))
    @settings(max_examples=80, deadline=None)
    def test_deep_nesting(self, depth, opener, place):
        if opener == "[":
            inner = "[" * depth + "]" * depth
        else:
            inner = '{"":' * depth + "1" + "}" * depth
        assert _loads_or_value_error(place.format(inner)) is None
        assert _loads_or_value_error(place.format(opener * depth)) is None

    @given(st.integers(min_value=4_301, max_value=50_000), st.sampled_from(_PLACES[1:]))
    @settings(max_examples=30, deadline=None)
    def test_over_long_integer_literals(self, digits, place):
        with pytest.raises(ValueError, match="schema violation"):
            load_degree_table(place.format("7" * digits))


class TestBundled:
    def test_names(self):
        assert bundled_names() == ["A5", "A6", "S5"]

    def test_tables_pass_order_checks(self):
        expected = {
            "A5": (60, ((1, 1), (3, 2), (4, 1), (5, 1))),
            "S5": (120, ((1, 2), (4, 2), (5, 2), (6, 1))),
            "A6": (360, ((1, 1), (5, 2), (8, 2), (9, 1), (10, 1))),
        }
        for name, (order, degrees) in expected.items():
            table = bundled_table(name)
            assert table.order == order
            assert table.degrees == degrees
            assert sum(m * d * d for d, m in degrees) == order

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            bundled_table("M11")


class TestDegreeSets:
    def test_cd(self):
        assert bundled_table("A5").degree_set == {1, 3, 4, 5}

    def test_cd_pprime_intro_examples(self):
        a5 = bundled_table("A5")
        for p in (2, 3, 5):
            assert len(cd_pprime(a5, p)) == 3
        assert cd_pprime(a5, 5) == {1, 3, 4}
        s5 = bundled_table("S5")
        assert cd_pprime(s5, 2) == {1, 5}
        a6 = bundled_table("A6")
        assert len(cd_pprime(a6, 5)) == 3

    def test_cd_pprime_subset_and_fixed_point(self):
        table = bundled_table("A6")
        for p in (2, 3, 5, 7, 11):
            sub = cd_pprime(table, p)
            assert sub <= table.degree_set
            assert (sub == table.degree_set) == all(d % p for d in table.degree_set)

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            cd_pprime(bundled_table("A5"), 6)


class TestPGL2:
    def test_examples(self):
        assert pgl2_degree_set(7) == {1, 6, 7, 8}
        assert pgl2_degree_set(11) == {1, 10, 11, 12}
        assert pgl2_degree_set(13) == {1, 12, 13, 14}

    def test_size_claim(self):
        for p in (7, 11, 13, 17, 19, 23, 29, 97):
            degs = pgl2_degree_set(p)
            assert len({d for d in degs if d % p}) == 3

    def test_rejects_small_or_composite(self):
        for bad in (5, 2, 9, -7):
            with pytest.raises(ValueError):
                pgl2_degree_set(bad)

    def test_small_or_composite_message(self):
        for bad in (9, 5):
            with pytest.raises(ValueError, match=rf"^expected a prime p > 5, got {bad}$"):
                pgl2_degree_set(bad)

    def test_largest_prime_below_the_trial_division_limit(self):
        p = TRIAL_DIVISION_LIMIT - 87
        assert pgl2_degree_set(p) == {1, p - 1, p, p + 1}

    @pytest.mark.parametrize("p", [TRIAL_DIVISION_LIMIT + 1, 10**24 + 7])
    def test_refused_above_the_trial_division_limit(self, p):
        # refused before any trial division, with require_prime's message
        message = f"expected a prime <= {TRIAL_DIVISION_LIMIT}, got {p}"
        for check in (pgl2_degree_set, require_prime):
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                check(p)
