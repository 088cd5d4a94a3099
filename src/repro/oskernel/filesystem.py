"""A small permission-checked file system.

Hierarchical paths, inodes with owner/group/mode, regular files,
directories and character devices.  Permission checks live in
:mod:`repro.oskernel.permissions`; this module only stores state and
resolves paths.

The file population mirrors the parts of Ubuntu 16.04 the paper's
evaluation touches: ``/etc/passwd``, ``/etc/shadow`` (root-owned by
default — the refactoring re-owns it to the special ``etc`` user),
``/dev/mem``, lock files, logs and home directories.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.oskernel.errors import (
    EEXIST,
    EISDIR,
    ENOENT,
    ENOTDIR,
    SyscallError,
)

# Inode kinds.
REGULAR = "regular"
DIRECTORY = "directory"
CHAR_DEVICE = "chardev"


@dataclasses.dataclass
class Inode:
    """One file-system object."""

    ino: int
    kind: str
    owner: int
    group: int
    mode: int
    #: Regular files: textual content.  Devices ignore this.
    content: str = ""
    #: Directories: name -> child inode number.
    entries: Optional[Dict[str, int]] = None

    @property
    def is_dir(self) -> bool:
        return self.kind == DIRECTORY


@dataclasses.dataclass(frozen=True)
class Stat:
    """The result of ``stat()`` — the fields the paper's programs consult."""

    ino: int
    kind: str
    owner: int
    group: int
    mode: int
    size: int


def split_path(path: str) -> List[str]:
    """Normalise an absolute path into components.

    :raises SyscallError: ENOENT for relative or empty paths (we do not
        model working directories; the programs under study use absolute
        paths).
    """
    if not path.startswith("/"):
        raise SyscallError(ENOENT, f"relative path not supported: {path!r}")
    return [part for part in path.split("/") if part]


class FileSystem:
    """The inode table plus path resolution."""

    def __init__(self) -> None:
        self._inodes: Dict[int, Inode] = {}
        self._next_ino = 1
        self.root_ino = self._new_inode(DIRECTORY, 0, 0, 0o755, entries={}).ino

    def _new_inode(
        self,
        kind: str,
        owner: int,
        group: int,
        mode: int,
        content: str = "",
        entries: Optional[Dict[str, int]] = None,
    ) -> Inode:
        inode = Inode(self._next_ino, kind, owner, group, mode, content, entries)
        self._inodes[inode.ino] = inode
        self._next_ino += 1
        return inode

    def inode(self, ino: int) -> Inode:
        try:
            return self._inodes[ino]
        except KeyError:
            raise SyscallError(ENOENT, f"stale inode {ino}") from None

    # -- path resolution -------------------------------------------------------

    def resolve(self, path: str) -> Inode:
        """Resolve a path to its inode (no permission checks here)."""
        inode = self.inode(self.root_ino)
        for part in split_path(path):
            if not inode.is_dir:
                raise SyscallError(ENOTDIR, path)
            child_ino = (inode.entries or {}).get(part)
            if child_ino is None:
                raise SyscallError(ENOENT, path)
            inode = self.inode(child_ino)
        return inode

    def resolve_parent(self, path: str) -> Tuple[Inode, str]:
        """Resolve to ``(parent directory inode, final component)``."""
        parts = split_path(path)
        if not parts:
            raise SyscallError(ENOENT, "cannot take parent of /")
        parent = self.inode(self.root_ino)
        for part in parts[:-1]:
            if not parent.is_dir:
                raise SyscallError(ENOTDIR, path)
            child_ino = (parent.entries or {}).get(part)
            if child_ino is None:
                raise SyscallError(ENOENT, path)
            parent = self.inode(child_ino)
        if not parent.is_dir:
            raise SyscallError(ENOTDIR, path)
        return parent, parts[-1]

    def lookup_directories(self, path: str) -> List[Inode]:
        """Every directory traversed when resolving ``path`` (for search checks)."""
        directories = [self.inode(self.root_ino)]
        inode = directories[0]
        parts = split_path(path)
        for part in parts[:-1] if parts else []:
            child_ino = (inode.entries or {}).get(part)
            if child_ino is None:
                raise SyscallError(ENOENT, path)
            inode = self.inode(child_ino)
            if not inode.is_dir:
                raise SyscallError(ENOTDIR, path)
            directories.append(inode)
        return directories

    def exists(self, path: str) -> bool:
        try:
            self.resolve(path)
            return True
        except SyscallError:
            return False

    # -- structural mutation (no permission checks; the kernel layers those) -----

    def mkdir(self, path: str, owner: int, group: int, mode: int) -> Inode:
        parent, name = self.resolve_parent(path)
        if name in (parent.entries or {}):
            raise SyscallError(EEXIST, path)
        child = self._new_inode(DIRECTORY, owner, group, mode, entries={})
        parent.entries[name] = child.ino
        return child

    def create_file(
        self, path: str, owner: int, group: int, mode: int, content: str = "",
        kind: str = REGULAR,
    ) -> Inode:
        parent, name = self.resolve_parent(path)
        if name in (parent.entries or {}):
            raise SyscallError(EEXIST, path)
        child = self._new_inode(kind, owner, group, mode, content=content)
        parent.entries[name] = child.ino
        return child

    def unlink(self, path: str) -> None:
        parent, name = self.resolve_parent(path)
        child_ino = (parent.entries or {}).get(name)
        if child_ino is None:
            raise SyscallError(ENOENT, path)
        if self.inode(child_ino).is_dir:
            raise SyscallError(EISDIR, path)
        del parent.entries[name]

    def rename(self, old_path: str, new_path: str) -> None:
        old_parent, old_name = self.resolve_parent(old_path)
        child_ino = (old_parent.entries or {}).get(old_name)
        if child_ino is None:
            raise SyscallError(ENOENT, old_path)
        new_parent, new_name = self.resolve_parent(new_path)
        del old_parent.entries[old_name]
        new_parent.entries[new_name] = child_ino

    def stat(self, path: str) -> Stat:
        inode = self.resolve(path)
        return Stat(
            ino=inode.ino,
            kind=inode.kind,
            owner=inode.owner,
            group=inode.group,
            mode=inode.mode,
            size=len(inode.content),
        )
