"""Frozen ``classify_host``: the reference for the hostname fast path.

This is the classifier as it was before it learned to skip ``ipaddress``
for names that cannot be IP literals: every name went through
``ipaddress.ip_address``, which raises (and the classifier catches) a
``ValueError`` for each domain.  Test-only: nothing under ``src/``
imports it.
"""

from __future__ import annotations

import ipaddress

from repro.core.addresses import Locality

_LOOPBACK_NAMES = frozenset({"localhost", "localhost.localdomain"})
_PRIVATE_V4_NETWORKS = (
    ipaddress.ip_network("10.0.0.0/8"),
    ipaddress.ip_network("172.16.0.0/12"),
    ipaddress.ip_network("192.168.0.0/16"),
)
_LINK_LOCAL_V4 = ipaddress.ip_network("169.254.0.0/16")
_PRIVATE_V6_NETWORKS = (
    ipaddress.ip_network("fc00::/7"),
    ipaddress.ip_network("fe80::/10"),
)


def parse_ip(host: str):
    candidate = host.strip()
    if candidate.startswith("[") and candidate.endswith("]"):
        candidate = candidate[1:-1]
    try:
        return ipaddress.ip_address(candidate)
    except ValueError:
        return None


def classify_host(host: str) -> Locality:
    if not host:
        return Locality.PUBLIC
    name = host.strip().rstrip(".").lower()
    if name in _LOOPBACK_NAMES or name.endswith(".localhost"):
        return Locality.LOCALHOST
    ip = parse_ip(name)
    if ip is None:
        return Locality.PUBLIC
    if ip.is_loopback:
        return Locality.LOCALHOST
    if ip.version == 4:
        if any(ip in network for network in _PRIVATE_V4_NETWORKS):
            return Locality.LAN
        if ip in _LINK_LOCAL_V4:
            return Locality.LAN
        return Locality.PUBLIC
    if any(ip in network for network in _PRIVATE_V6_NETWORKS):
        return Locality.LAN
    if ip.ipv4_mapped is not None:
        return classify_host(str(ip.ipv4_mapped))
    return Locality.PUBLIC
