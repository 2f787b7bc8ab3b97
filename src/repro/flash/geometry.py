"""NAND flash geometry and physical address arithmetic.

The physical hierarchy is channels → packages → dies → planes → blocks →
pages.  For operation scheduling we flatten everything above a block into
*LUNs* (logical units): one plane is one LUN, because a plane can execute
one array operation at a time while its channel is only busy during data
transfer.  Blocks are striped across LUNs so sequential allocation spreads
load over all channels and dies.

Addresses:

* ``ppa``  — physical page address, 0 .. total_pages-1
* ``block``— global block id, 0 .. total_blocks-1
* a page's block is ``ppa // pages_per_block``; its index inside the block
  is ``ppa % pages_per_block``
* a block's LUN is ``block % num_luns`` (striping); its channel is
  ``lun % channels``
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class FlashGeometry:
    """Dimensions of the simulated NAND array."""

    channels: int = 8
    packages_per_channel: int = 1
    dies_per_package: int = 2
    planes_per_die: int = 2
    blocks_per_plane: int = 16
    pages_per_block: int = 64
    page_size: int = 4096

    def __post_init__(self) -> None:
        for field_name in ("channels", "packages_per_channel", "dies_per_package",
                           "planes_per_die", "blocks_per_plane",
                           "pages_per_block", "page_size"):
            value = getattr(self, field_name)
            if value < 1:
                raise ConfigError(f"{field_name} must be >= 1, got {value}")
        if self.page_size % 512 != 0:
            raise ConfigError("page_size must be a multiple of the 512 B sector")

    # -- derived sizes ---------------------------------------------------
    @property
    def num_luns(self) -> int:
        """Independently schedulable plane count."""
        return (self.channels * self.packages_per_channel *
                self.dies_per_package * self.planes_per_die)

    @property
    def total_blocks(self) -> int:
        """Erase blocks in the whole array."""
        return self.num_luns * self.blocks_per_plane

    @property
    def total_pages(self) -> int:
        """Physical pages in the whole array."""
        return self.total_blocks * self.pages_per_block

    @property
    def block_bytes(self) -> int:
        """Bytes per erase block."""
        return self.pages_per_block * self.page_size

    @property
    def capacity_bytes(self) -> int:
        """Raw physical capacity including over-provisioning headroom."""
        return self.total_pages * self.page_size

    # -- address arithmetic ----------------------------------------------
    def block_of_page(self, ppa: int) -> int:
        """Global block id containing physical page ``ppa``."""
        self.check_page(ppa)
        return ppa // self.pages_per_block

    def page_in_block(self, ppa: int) -> int:
        """Index of ``ppa`` within its block (0 .. pages_per_block-1)."""
        self.check_page(ppa)
        return ppa % self.pages_per_block

    def first_page_of_block(self, block: int) -> int:
        """PPA of page 0 in ``block``."""
        self.check_block(block)
        return block * self.pages_per_block

    def lun_of_block(self, block: int) -> int:
        """LUN executing operations for ``block``."""
        self.check_block(block)
        return block % self.num_luns

    def lun_of_page(self, ppa: int) -> int:
        """LUN executing operations for page ``ppa``."""
        return self.lun_of_block(self.block_of_page(ppa))

    def channel_of_lun(self, lun: int) -> int:
        """Channel wired to ``lun``."""
        if not 0 <= lun < self.num_luns:
            raise ConfigError(f"lun {lun} out of range [0, {self.num_luns})")
        return lun % self.channels

    def channel_of_page(self, ppa: int) -> int:
        """Channel used to move data for page ``ppa``."""
        return self.channel_of_lun(self.lun_of_page(ppa))

    # -- validation --------------------------------------------------------
    def check_page(self, ppa: int) -> None:
        """Raise when ``ppa`` is outside the array."""
        if not 0 <= ppa < self.total_pages:
            raise ConfigError(f"ppa {ppa} out of range [0, {self.total_pages})")

    def check_block(self, block: int) -> None:
        """Raise when ``block`` is outside the array."""
        if not 0 <= block < self.total_blocks:
            raise ConfigError(f"block {block} out of range [0, {self.total_blocks})")
