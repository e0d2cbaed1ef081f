"""Differential oracle: ``classify_host`` against the frozen reference.

The classifier returns PUBLIC without calling ``ipaddress`` for a name
that cannot be an IP literal; ``_reference_addresses`` is the classifier
before that shortcut.  Both must agree on IPv4 and IPv6 literals,
bracketed, scoped and IPv4-mapped addresses, trailing dots, upper case,
digit-led domains, non-ASCII digits and empty names.
"""

from __future__ import annotations

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.addresses import classify_host

from . import _reference_addresses as reference

_IPV4 = st.builds(
    lambda value: str(ipaddress.IPv4Address(value)),
    st.integers(0, 2**32 - 1),
) | st.sampled_from(
    ("127.0.0.1", "10.1.2.3", "172.16.0.9", "192.168.1.8", "169.254.3.4")
)
_IPV6 = st.builds(
    lambda value: str(ipaddress.IPv6Address(value)),
    st.integers(0, 2**128 - 1),
) | st.sampled_from(("::1", "fe80::1", "fd00::2", "::", "2001:db8::5"))
_MAPPED = _IPV4.map(lambda v4: f"::ffff:{v4}")
_SCOPED = st.builds(
    lambda address, zone: f"{address}%{zone}",
    _IPV6,
    st.sampled_from(("eth0", "1", "")),
)
_DOMAINS = st.from_regex(
    r"[A-Za-z0-9][A-Za-z0-9.-]{0,20}", fullmatch=True
) | st.sampled_from(
    (
        "1password.com",
        "127.0.0.1.nip.io",
        "localhost",
        "LOCALHOST.",
        "a.localhost",
        "localhost.localdomain",
        "0x7f.1",
        "1e100.net",
        "",
        ".",
        "[]",
        "[::1",
        "١٢٧.٠.٠.١",  # Arabic-Indic digits
        "１２７.０.０.１",  # fullwidth digits
        "۱.۲.۳.۴",
    )
)
_LITERALS = _IPV4 | _IPV6 | _MAPPED | _SCOPED


def _dress(name: str, brackets: bool, dots: int, upper: bool, pad: str) -> str:
    if brackets:
        name = f"[{name}]"
    name += "." * dots
    if upper:
        name = name.upper()
    return pad + name + pad


_HOSTS = st.builds(
    _dress,
    _LITERALS | _DOMAINS,
    st.booleans(),
    st.integers(0, 2),
    st.booleans(),
    st.sampled_from(("", " ", "\t")),
) | st.text(max_size=12)


@given(host=_HOSTS)
@settings(max_examples=600, deadline=None)
def test_classify_host_matches_reference(host):
    assert classify_host(host) == reference.classify_host(host)


@pytest.mark.parametrize(
    "host",
    [
        "1password.com",
        "[::1]",
        "::ffff:192.168.0.1",
        "[::ffff:127.0.0.1]",
        "fe80::1%eth0",
        "127.0.0.1.",
        "LOCALHOST",
        "١٢٧.٠.٠.١",
        "",
    ],
)
def test_named_shapes_agree(host):
    assert classify_host(host) == reference.classify_host(host)
