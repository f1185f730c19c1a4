"""The two serve roles, booted alike for role-contract tests.

:class:`~repro.serve.app.ServeApp` and :class:`~repro.serve.router.
ShardRouter` share one HTTP skeleton (:class:`~repro.serve.httpcore.
HttpService`), so every edge behaviour of that skeleton — routing
errors, malformed requests, drain, the handle — is checked on both.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.serve import Client, RouterConfig, ServeApp, ShardRouter

ROLES = ("app", "router")


def boot(role: str, **overrides):
    """An unstarted service: a serial-backend app, or a 1-shard router."""
    if role == "app":
        return ServeApp(**{"port": 0, "backend": "serial", **overrides})
    config = {"port": 0, "shards": 1, "shard_args": ("--serial",), **overrides}
    return ShardRouter(RouterConfig(**config))


@contextmanager
def running(role: str, **overrides):
    """``(service, client)`` for a started ``role``; stopped on exit."""
    service = boot(role, **overrides)
    with service.start_in_thread() as handle:
        yield service, Client(handle.url, timeout=120.0)


@contextmanager
def every_role():
    """Both roles running at once, as ``{role: (service, client)}``."""
    with running("app") as app, running("router") as router:
        yield {"app": app, "router": router}
