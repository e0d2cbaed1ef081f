"""Classification of request destinations as localhost, LAN, or public.

The paper's detection rule (section 4): a request is *localhost activity*
when its destination is the literal ``localhost`` domain or a loopback IP
(127.0.0.0/8 for IPv4, ``::1`` for IPv6); it is *LAN activity* when the
destination is an IP inside the IANA-reserved private ranges of RFC 1918
(10/8, 172.16/12, 192.168/16) or their IPv6 analogues (unique-local
fc00::/7, link-local fe80::/10).  Everything else — including private
*hostnames* that merely resolve to private IPs, which the paper cannot see
from NetLog URLs alone — is public.

This module is pure and dependency-free so it can be reused against real
Chrome NetLog dumps.
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass
from urllib.parse import urlsplit

from ..netlog.constants import DEFAULT_PORTS


class Locality(enum.Enum):
    """Where a request destination lives, from the browser's perspective."""

    LOCALHOST = "localhost"
    LAN = "lan"
    PUBLIC = "public"

    @property
    def is_local(self) -> bool:
        """True for destinations inside the user's machine or LAN."""
        return self is not Locality.PUBLIC


#: Hostnames treated as loopback without resolution.  Chrome resolves
#: ``localhost`` (and subdomains of it, per RFC 6761) to loopback without
#: consulting DNS, so the paper counts them as localhost activity directly.
_LOOPBACK_NAMES = frozenset({"localhost", "localhost.localdomain"})

#: First characters an IP literal without a colon can start with.
_IP_LITERAL_STARTS = frozenset("0123456789[")

_PRIVATE_V4_NETWORKS = (
    ipaddress.ip_network("10.0.0.0/8"),
    ipaddress.ip_network("172.16.0.0/12"),
    ipaddress.ip_network("192.168.0.0/16"),
)
_LINK_LOCAL_V4 = ipaddress.ip_network("169.254.0.0/16")
_PRIVATE_V6_NETWORKS = (
    ipaddress.ip_network("fc00::/7"),  # unique local addresses
    ipaddress.ip_network("fe80::/10"),  # link local
)


def parse_ip(host: str) -> ipaddress.IPv4Address | ipaddress.IPv6Address | None:
    """Parse ``host`` as an IP literal, tolerating URL bracket syntax.

    Returns None when the host is a domain name rather than an address.
    """
    candidate = host.strip()
    if candidate.startswith("[") and candidate.endswith("]"):
        candidate = candidate[1:-1]
    try:
        return ipaddress.ip_address(candidate)
    except ValueError:
        return None


def classify_host(host: str) -> Locality:
    """Classify a bare hostname or IP literal.

    >>> classify_host("localhost")
    <Locality.LOCALHOST: 'localhost'>
    >>> classify_host("192.168.1.8")
    <Locality.LAN: 'lan'>
    >>> classify_host("example.com")
    <Locality.PUBLIC: 'public'>
    """
    if not host:
        return Locality.PUBLIC
    name = host.strip().rstrip(".").lower()
    if name in _LOOPBACK_NAMES or name.endswith(".localhost"):
        return Locality.LOCALHOST
    # A name that cannot be an IP literal skips ``ipaddress``, which
    # raises and catches a ValueError for every domain: IPv4 literals
    # start with an ASCII digit, IPv6 ones need a colon or brackets.
    if name[:1] not in _IP_LITERAL_STARTS and ":" not in name:
        return Locality.PUBLIC
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
    # IPv6: unique-local and link-local count as LAN; the paper observed no
    # IPv6 local traffic in practice but the detection rule covers it.
    if any(ip in network for network in _PRIVATE_V6_NETWORKS):
        return Locality.LAN
    if ip.ipv4_mapped is not None:
        return classify_host(str(ip.ipv4_mapped))
    return Locality.PUBLIC


@dataclass(frozen=True, slots=True)
class RequestTarget:
    """A parsed request destination: scheme, host, port, path(+query)."""

    scheme: str
    host: str
    port: int
    path: str
    locality: Locality

    @property
    def is_local(self) -> bool:
        return self.locality.is_local

    @property
    def origin(self) -> str:
        """The web origin string (scheme://host:port)."""
        return f"{self.scheme}://{self.host}:{self.port}"

    def url(self) -> str:
        """Reassemble the full URL."""
        default = DEFAULT_PORTS.get(self.scheme)
        netloc = self.host if self.port == default else f"{self.host}:{self.port}"
        return f"{self.scheme}://{netloc}{self.path}"


class TargetParseError(ValueError):
    """Raised when a URL cannot be interpreted as a request target."""


def parse_target(url: str) -> RequestTarget:
    """Parse a URL into a :class:`RequestTarget`.

    Handles the four schemes a webpage can direct network requests through
    (http, https, ws, wss), default ports, IPv6 bracket literals, and
    trailing-dot hostnames.

    Raises
    ------
    TargetParseError
        If the URL has no usable scheme/host or an invalid port.
    """
    parts = urlsplit(url)
    scheme = parts.scheme.lower()
    if scheme not in DEFAULT_PORTS:
        raise TargetParseError(f"unsupported scheme in {url!r}")
    host = (parts.hostname or "").lower()
    if not host:
        raise TargetParseError(f"no host in {url!r}")
    try:
        port = parts.port
    except ValueError as exc:
        raise TargetParseError(f"invalid port in {url!r}") from exc
    if port is None:
        port = DEFAULT_PORTS[scheme]
    path = parts.path or "/"
    if parts.query:
        path = f"{path}?{parts.query}"
    return RequestTarget(
        scheme=scheme,
        host=host,
        port=port,
        path=path,
        locality=classify_host(host),
    )


def classify_url(url: str) -> Locality:
    """Classify a full URL's destination; PUBLIC for unparseable URLs.

    The forgiving error handling matches the measurement posture: a crawl
    must not abort because one site emitted a malformed URL.
    """
    try:
        return parse_target(url).locality
    except TargetParseError:
        return Locality.PUBLIC
