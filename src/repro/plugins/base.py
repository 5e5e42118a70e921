"""Plug-in base class."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from repro.osn.actions import OsnAction
from repro.osn.service import OsnService
from repro.simkit.world import World

#: Server-side listener invoked for every captured OSN action.
ActionListener = Callable[[OsnAction], None]


class OsnPlugin(ABC):
    """Captures a platform's user actions and forwards them server-side."""

    def __init__(self, world: World, service: OsnService):
        self._world = world
        self._service = service
        self._listeners: list[ActionListener] = []
        self._users: set[str] = set()
        self.actions_captured = 0
        self.started = False

    @property
    def platform(self) -> str:
        return self._service.platform

    def add_listener(self, listener: ActionListener) -> None:
        """Register a server-side consumer of captured actions."""
        self._listeners.append(listener)

    def register_user(self, user_id: str) -> None:
        """The user authenticates the plug-in (OAuth / profile add, §4)."""
        self._service.authorize_app(user_id)
        self._users.add(user_id)

    def registered_users(self) -> list[str]:
        return sorted(self._users)

    @abstractmethod
    def start(self) -> None:
        """Begin capturing actions."""

    @abstractmethod
    def stop(self) -> None:
        """Stop capturing actions."""

    def _emit(self, action: OsnAction) -> None:
        if action.user_id not in self._users:
            return
        self.actions_captured += 1
        for listener in list(self._listeners):
            listener(action)
