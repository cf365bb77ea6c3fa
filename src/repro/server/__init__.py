"""Mserver: the MonetDB-server stand-in.

"Mserver is the MonetDB database server.  It is the main component which
encapsulates the entire MonetDB execution environment.  Mserver works as
a background process.  It listens for the incoming client connections on
user defined ports.  Stethoscope connects to Mserver as a client."

This package provides :class:`~repro.server.database.Database` (the
embedded execution environment: catalog + SQL compiler + optimizer +
interpreter + profiler), :class:`~repro.server.mserver.Mserver` (a TCP
server around it) and :class:`~repro.server.client.MClient` (the client
used by examples and the online Stethoscope).  The wire protocol is
line-delimited JSON, with a result's columns as packed frames behind
their header line — a simplification of MonetDB's MAPI protocol that
keeps the same request/response structure (documented in DESIGN.md).
"""

from repro.server.client import ClientSubscription, MClient
from repro.server.database import Database
from repro.server.mserver import Mserver

__all__ = ["ClientSubscription", "Database", "MClient", "Mserver"]
