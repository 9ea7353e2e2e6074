"""Relative Attack Surface Quotient (Howard, Pincus, Wing [41]).

RASQ measures a system's "attackability" as a weighted sum over attack
vectors: resources available to an attacker, communication channels, and
access rights. As Howard et al. stress, the score is *relative* — it only
orders systems, never certifies one — which is exactly how the paper uses
it: one more noisy-but-informative feature (§4.1).

We derive the attack-vector instances from static analysis of the
codebase: network/file/process/environment channel usage comes from call
sites of the corresponding APIs, and the method dimension comes from the
publicly visible functions the parser recovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.artifact import artifact_for
from repro.lang.sourcefile import Codebase
from repro.lang.tokens import TokenKind

#: Channel classes with their RASQ attackability weights. Weights follow the
#: published RASQ intuition: remotely reachable, unauthenticated channels
#: weigh most; local-only resources weigh least.
CHANNEL_WEIGHTS: Dict[str, float] = {
    "network": 1.0,
    "rpc": 0.9,
    "process_spawn": 0.8,
    "file_write": 0.6,
    "file_read": 0.4,
    "environment": 0.3,
    "registry_config": 0.3,
}

#: API names that evidence each channel class, across the four languages.
CHANNEL_APIS: Dict[str, frozenset] = {
    "network": frozenset(
        {"socket", "bind", "listen", "accept", "connect", "recv", "recvfrom",
         "send", "sendto", "ServerSocket", "HttpServer", "urlopen",
         "requests", "listen_and_serve"}
    ),
    "rpc": frozenset({"rpc_register", "xmlrpc", "grpc", "RemoteObject", "rmi"}),
    "process_spawn": frozenset(
        {"system", "popen", "exec", "execl", "execlp", "execv", "execvp",
         "fork", "CreateProcess", "ProcessBuilder", "subprocess", "spawn"}
    ),
    "file_write": frozenset(
        {"fopen", "open", "fwrite", "write", "ofstream", "FileWriter",
         "FileOutputStream"}
    ),
    "file_read": frozenset(
        {"fread", "read", "ifstream", "FileReader", "FileInputStream",
         "readlines"}
    ),
    "environment": frozenset({"getenv", "setenv", "putenv", "environ", "Env"}),
    "registry_config": frozenset(
        {"RegOpenKey", "RegSetValue", "config_read", "load_config",
         "ConfigParser", "Properties"}
    ),
}

#: Weight of one externally visible (public) entry-point method.
PUBLIC_METHOD_WEIGHT = 0.2
#: Weight of one elevated-privilege indicator (setuid etc.).
PRIVILEGE_WEIGHT = 1.5

_PRIVILEGE_APIS = frozenset(
    {"setuid", "seteuid", "setgid", "setcap", "CAP_SYS_ADMIN", "sudo",
     "AdjustTokenPrivileges"}
)


@dataclass(frozen=True)
class AttackSurface:
    """Attack-surface breakdown of one codebase."""

    channel_counts: Dict[str, int]
    n_public_methods: int
    n_privilege_sites: int

    @property
    def rasq(self) -> float:
        """The Relative Attack Surface Quotient."""
        score = sum(
            CHANNEL_WEIGHTS[channel] * count
            for channel, count in self.channel_counts.items()
        )
        score += PUBLIC_METHOD_WEIGHT * self.n_public_methods
        score += PRIVILEGE_WEIGHT * self.n_privilege_sites
        return score

    @property
    def network_facing(self) -> bool:
        """Whether any network channel is present (feeds the AV=N hypothesis)."""
        return self.channel_counts.get("network", 0) > 0


def measure_file(source) -> AttackSurface:
    """The :class:`AttackSurface` contribution of one file."""
    channel_counts = {channel: 0 for channel in CHANNEL_WEIGHTS}
    privilege = 0
    columns = source.columns
    texts = columns.texts
    n = len(texts)
    ident = TokenKind.IDENT
    for i, (kind, name) in enumerate(zip(columns.kinds, texts)):
        if kind is not ident:
            continue
        is_call = i + 1 < n and texts[i + 1] == "("
        if name in _PRIVILEGE_APIS:
            privilege += 1
            continue
        if not is_call:
            continue
        for channel, apis in CHANNEL_APIS.items():
            if name in apis:
                channel_counts[channel] += 1
                break
    functions = artifact_for(source).functions
    public_methods = sum(1 for f in functions if f.is_public)
    return AttackSurface(
        channel_counts=channel_counts,
        n_public_methods=public_methods,
        n_privilege_sites=privilege,
    )


def measure_codebase(codebase: Codebase) -> AttackSurface:
    """Compute the :class:`AttackSurface` of ``codebase``.

    A channel instance is a call site of one of the channel's APIs; each
    public function counts toward the method dimension.
    """
    channel_counts = {channel: 0 for channel in CHANNEL_WEIGHTS}
    privilege = 0
    public_methods = 0
    for source in codebase:
        surface = measure_file(source)
        for channel, count in surface.channel_counts.items():
            channel_counts[channel] += count
        privilege += surface.n_privilege_sites
        public_methods += surface.n_public_methods
    return AttackSurface(
        channel_counts=channel_counts,
        n_public_methods=public_methods,
        n_privilege_sites=privilege,
    )


def relative_quotient(a: Codebase, b: Codebase) -> float:
    """RASQ of ``a`` relative to ``b`` (>1 means ``a`` is more attackable).

    Howard et al. define RASQ only as a comparison between systems; this
    helper makes that explicit.
    """
    rasq_a = measure_codebase(a).rasq
    rasq_b = measure_codebase(b).rasq
    if rasq_b == 0:
        return float("inf") if rasq_a > 0 else 1.0
    return rasq_a / rasq_b
