"""Cache line metadata.

Lines track tag/dirty state plus the REST extension: a small bitmap of
token bits, one per token slot in the line (1 bit for 64-byte tokens,
up to 4 bits for 16-byte tokens — paper Section III-B).  Data itself is
held authoritatively by the backing store; the line records only
metadata, which is all the REST hardware adds to a real cache.

A line object exists only while it is resident: the owning cache
allocates it on fill and hands it back as the victim on eviction, so
there is no "invalid way" state to model.
"""

from __future__ import annotations


class CacheLine:
    """One resident way of one set (or an evicted victim's metadata)."""

    __slots__ = ("tag", "dirty", "token_bits")

    def __init__(self, tag: int, dirty: bool = False, token_bits: int = 0) -> None:
        self.tag = tag
        self.dirty = dirty
        #: Bitmap of token bits; bit i covers token slot i of the line.
        self.token_bits = token_bits

    def __repr__(self) -> str:
        return (
            f"CacheLine(tag={self.tag:#x}, dirty={self.dirty}, "
            f"token_bits={self.token_bits:#x})"
        )
