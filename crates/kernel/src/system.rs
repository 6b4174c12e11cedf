//! The kernel substrate and its system-call surface.
//!
//! [`System`] couples a [`Machine`] with a minimal kernel: a buddy frame
//! allocator behind a pluggable [`PlacementPolicy`], 4-level page-table
//! construction, processes with in-memory credentials, demand paging and the
//! handful of system calls the PThammer attacker needs (`mmap`, memory
//! access, `clflush`, `rdtsc`, `getuid`).

use std::collections::BTreeMap;

use pthammer_machine::{Machine, MachineConfig, TouchAccess, VirtualAccess};
use pthammer_mmu::{Pte, PteFlags};
use pthammer_types::{
    Cycles, PageSize, PhysAddr, VirtAddr, HUGE_PAGE_SIZE, PAGE_SIZE, PTES_PER_TABLE,
};

use crate::{
    buddy::BuddyAllocator,
    cred::{Cred, CREDS_PER_FRAME, CRED_SIZE},
    error::KernelError,
    policy::{DefaultPolicy, DefenseKind, FramePurpose, PlacementPolicy},
    process::{Pid, Process},
    vma::{Vma, VmaBacking},
};

/// Kernel tuning parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelConfig {
    /// Cycles charged for handling one demand-paging fault.
    pub fault_latency: u64,
    /// Low frames reserved for the kernel image and static data.
    pub reserved_kernel_frames: u64,
    /// Whether 2 MiB superpage mappings are available to user processes.
    pub superpages_enabled: bool,
    /// Base virtual address for `mmap` allocations.
    pub mmap_base: u64,
}

impl KernelConfig {
    /// Default configuration (superpages disabled, as in the paper's
    /// "regular page" setting).
    pub fn default_config() -> Self {
        Self {
            fault_latency: 1_500,
            reserved_kernel_frames: 2_048,
            superpages_enabled: false,
            mmap_base: 0x2000_0000,
        }
    }

    /// Configuration with superpages enabled (the paper's second setting).
    pub fn with_superpages() -> Self {
        Self {
            superpages_enabled: true,
            ..Self::default_config()
        }
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self::default_config()
    }
}

/// Options for [`System::mmap`].
#[derive(Debug, Clone, PartialEq)]
pub struct MmapOptions {
    /// Page size of the mapping.
    pub page_size: PageSize,
    /// Populate the mapping eagerly (build page tables now) instead of on
    /// first touch.
    pub populate: bool,
    /// Backing of the mapping.
    pub backing: VmaBacking,
}

impl Default for MmapOptions {
    fn default() -> Self {
        Self {
            page_size: PageSize::Base4K,
            populate: false,
            backing: VmaBacking::Anonymous { fill_pattern: 0 },
        }
    }
}

/// Frame-allocation statistics maintained by the kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Page-table frames allocated (all levels).
    pub page_table_frames: u64,
    /// Level-1 page-table frames allocated.
    pub l1pt_frames: u64,
    /// User data frames allocated.
    pub user_frames: u64,
    /// Kernel data frames allocated (cred slabs etc.).
    pub kernel_data_frames: u64,
    /// Demand-paging faults handled.
    pub faults_handled: u64,
    /// Successful buddy-allocator allocations (plain and constrained).
    pub frame_allocs: u64,
    /// Free blocks the buddy allocator examined to serve them — the exact
    /// cost of placement constraints.
    pub free_blocks_examined: u64,
}

/// The simulated system: machine + kernel.
#[derive(Debug)]
pub struct System {
    machine: Machine,
    config: KernelConfig,
    policy: Box<dyn PlacementPolicy>,
    buddy: BuddyAllocator,
    processes: BTreeMap<Pid, Process>,
    next_pid: Pid,
    /// Current cred slab frame and the number of slots already used in it.
    cred_slab: Option<(u64, u64)>,
    stats: KernelStats,
}

impl System {
    /// Boots a system with the given machine, kernel configuration and
    /// placement policy.
    pub fn new(
        machine_config: MachineConfig,
        kernel_config: KernelConfig,
        policy: Box<dyn PlacementPolicy>,
    ) -> Self {
        let machine = Machine::new(machine_config);
        let total_frames = machine.config().dram.geometry.capacity_bytes() / PAGE_SIZE;
        let reserved = kernel_config.reserved_kernel_frames.min(total_frames / 2);
        let buddy = BuddyAllocator::new(reserved, total_frames);
        Self {
            machine,
            config: kernel_config,
            policy,
            buddy,
            processes: BTreeMap::new(),
            next_pid: 1,
            cred_slab: None,
            stats: KernelStats::default(),
        }
    }

    /// Boots an undefended system (default placement policy).
    pub fn undefended(machine_config: MachineConfig) -> Self {
        Self::new(
            machine_config,
            KernelConfig::default_config(),
            Box::new(DefaultPolicy::new()),
        )
    }

    /// The kernel configuration.
    pub fn kernel_config(&self) -> &KernelConfig {
        &self.config
    }

    /// The name of the active placement policy (defense).
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Typed identity of the active placement policy (defense).
    pub fn policy_kind(&self) -> DefenseKind {
        self.policy.kind()
    }

    /// Kernel allocation statistics.
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            frame_allocs: self.buddy.frame_allocs(),
            free_blocks_examined: self.buddy.blocks_examined(),
            ..self.stats
        }
    }

    /// Read access to the underlying machine (evaluation / oracle use only).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the underlying machine (evaluation / oracle use
    /// only — the simulated attacker must go through the system calls).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The process table (evaluation / bookkeeping).
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.processes.get(&pid)
    }

    // ------------------------------------------------------------------
    // Frame allocation.
    // ------------------------------------------------------------------

    fn alloc_frame(&mut self, purpose: FramePurpose) -> Result<u64, KernelError> {
        let frame = self
            .policy
            .allocate(purpose, &mut self.buddy)
            .ok_or(KernelError::OutOfMemory)?;
        match purpose {
            FramePurpose::PageTable { level, .. } => {
                self.stats.page_table_frames += 1;
                if level == 1 {
                    self.stats.l1pt_frames += 1;
                }
            }
            FramePurpose::UserPage { .. } => self.stats.user_frames += 1,
            FramePurpose::KernelData => self.stats.kernel_data_frames += 1,
        }
        Ok(frame)
    }

    fn alloc_cred_slot(&mut self, cred: Cred) -> Result<PhysAddr, KernelError> {
        let (frame, used) = match self.cred_slab {
            Some((frame, used)) if used < CREDS_PER_FRAME => (frame, used),
            _ => {
                let frame = self.alloc_frame(FramePurpose::KernelData)?;
                self.machine.phys_write_frame_uniform(frame, 0);
                (frame, 0)
            }
        };
        let paddr = PhysAddr::from_frame(frame, used * CRED_SIZE);
        self.machine.phys_write_bytes(paddr, &cred.to_bytes());
        self.cred_slab = Some((frame, used + 1));
        Ok(paddr)
    }

    // ------------------------------------------------------------------
    // Processes.
    // ------------------------------------------------------------------

    /// Creates a new process with the given uid; returns its pid.
    pub fn spawn_process(&mut self, uid: u32) -> Result<Pid, KernelError> {
        let pid = self.next_pid;
        self.next_pid += 1;
        let pml4_frame = self.alloc_frame(FramePurpose::PageTable { level: 4, pid })?;
        self.machine.phys_write_frame_uniform(pml4_frame, 0);
        let cred_paddr = self.alloc_cred_slot(Cred::user(pid, uid))?;
        let process = Process {
            pid,
            uid,
            cr3: PhysAddr::from_frame(pml4_frame, 0),
            cred_paddr,
            vmas: Vec::new(),
            next_mmap: self.config.mmap_base,
            l1pt_frames: Vec::new(),
        };
        self.processes.insert(pid, process);
        Ok(pid)
    }

    /// Creates `count` processes with the given uid (used to spray
    /// `struct cred` objects for the CTA bypass of Section IV-G3).
    pub fn spawn_processes(&mut self, count: usize, uid: u32) -> Result<Vec<Pid>, KernelError> {
        (0..count).map(|_| self.spawn_process(uid)).collect()
    }

    /// Returns the effective uid of the process, read from its in-memory
    /// credential (so a rowhammer-corrupted credential is faithfully
    /// reflected, which is how privilege escalation is demonstrated).
    pub fn getuid(&self, pid: Pid) -> Result<u32, KernelError> {
        let proc = self
            .processes
            .get(&pid)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        let bytes = self
            .machine
            .phys_read_bytes(proc.cred_paddr, CRED_SIZE as usize);
        let cred = Cred::from_bytes(&bytes)
            .ok_or_else(|| KernelError::InvalidArgument(format!("corrupted cred for pid {pid}")))?;
        Ok(cred.euid)
    }

    fn cr3_of(&self, pid: Pid) -> Result<PhysAddr, KernelError> {
        self.processes
            .get(&pid)
            .map(|p| p.cr3)
            .ok_or(KernelError::NoSuchProcess(pid))
    }

    // ------------------------------------------------------------------
    // Page-table construction.
    // ------------------------------------------------------------------

    /// Walks from CR3 down to the table at `table_level`, allocating any
    /// missing intermediate tables, and returns the table's physical base.
    /// `table_level` is 1 for an L1 page table, 2 for a page directory.
    fn ensure_table(
        &mut self,
        pid: Pid,
        vaddr: VirtAddr,
        table_level: u8,
    ) -> Result<PhysAddr, KernelError> {
        let cr3 = self.cr3_of(pid)?;
        let mut table = cr3;
        let mut new_l1pts = Vec::new();
        for entry_level in ((table_level + 1)..=4).rev() {
            let entry_paddr = table + vaddr.pt_index(entry_level) * 8;
            let entry = Pte::from_raw(self.machine.phys_read_u64(entry_paddr));
            table = if entry.present() {
                entry.frame()
            } else {
                let child_level = entry_level - 1;
                let frame = self.alloc_frame(FramePurpose::PageTable {
                    level: child_level,
                    pid,
                })?;
                self.machine.phys_write_frame_uniform(frame, 0);
                let base = PhysAddr::from_frame(frame, 0);
                self.machine
                    .phys_write_u64(entry_paddr, Pte::table(base).raw());
                if child_level == 1 {
                    new_l1pts.push(frame);
                }
                base
            };
        }
        if !new_l1pts.is_empty() {
            if let Some(proc) = self.processes.get_mut(&pid) {
                proc.l1pt_frames.extend(new_l1pts);
            }
        }
        Ok(table)
    }

    /// Installs a 4 KiB mapping `vaddr -> frame`.
    fn map_4k(&mut self, pid: Pid, vaddr: VirtAddr, frame: u64) -> Result<(), KernelError> {
        let pt = self.ensure_table(pid, vaddr, 1)?;
        let pte_paddr = pt + vaddr.pt_index(1) * 8;
        self.machine.phys_write_u64(
            pte_paddr,
            Pte::page(PhysAddr::from_frame(frame, 0), PteFlags::user_rw()).raw(),
        );
        self.machine.invalidate_page(vaddr);
        Ok(())
    }

    /// Installs a 2 MiB mapping `vaddr -> frame` (frame must be the first of
    /// 512 contiguous frames).
    fn map_2m(&mut self, pid: Pid, vaddr: VirtAddr, frame: u64) -> Result<(), KernelError> {
        let pd = self.ensure_table(pid, vaddr, 2)?;
        let pde_paddr = pd + vaddr.pt_index(2) * 8;
        self.machine.phys_write_u64(
            pde_paddr,
            Pte::page(PhysAddr::from_frame(frame, 0), PteFlags::user_rw_huge()).raw(),
        );
        self.machine.invalidate_page(vaddr);
        Ok(())
    }

    // ------------------------------------------------------------------
    // mmap and demand paging.
    // ------------------------------------------------------------------

    /// Maps `length` bytes into the process's address space and returns the
    /// base virtual address.
    ///
    /// # Errors
    ///
    /// Fails when the length is not a multiple of the page size, when
    /// superpages are requested but disabled, or when memory is exhausted
    /// during eager population.
    pub fn mmap(
        &mut self,
        pid: Pid,
        length: u64,
        options: MmapOptions,
    ) -> Result<VirtAddr, KernelError> {
        if length == 0 || !length.is_multiple_of(options.page_size.bytes()) {
            return Err(KernelError::InvalidArgument(format!(
                "length {length} is not a positive multiple of the page size"
            )));
        }
        if options.page_size.is_huge() && !self.config.superpages_enabled {
            return Err(KernelError::SuperpagesDisabled);
        }
        if let VmaBacking::SharedFrames { frames } = &options.backing {
            if frames.is_empty() {
                return Err(KernelError::InvalidArgument(
                    "shared-frame mapping needs at least one frame".to_string(),
                ));
            }
            if options.page_size.is_huge() {
                return Err(KernelError::InvalidArgument(
                    "shared-frame mappings must use 4 KiB pages".to_string(),
                ));
            }
        }

        let proc = self
            .processes
            .get_mut(&pid)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        // Align each area to 2 MiB so it owns whole Level-1 page tables.
        let base = (proc.next_mmap + HUGE_PAGE_SIZE - 1) & !(HUGE_PAGE_SIZE - 1);
        proc.next_mmap = base + length + HUGE_PAGE_SIZE;
        let start = VirtAddr::new(base);
        proc.vmas.push(Vma {
            start,
            length,
            page_size: options.page_size,
            backing: options.backing,
        });

        if options.populate {
            self.populate_range(pid, start, length)?;
        }
        Ok(start)
    }

    /// Returns the physical frames backing an existing mapping (used by the
    /// attacker to create aliased spray mappings of its own user page, the
    /// way `mmap`ing the same file repeatedly aliases frames in the paper).
    pub fn frames_of_mapping(&self, pid: Pid, vaddr: VirtAddr) -> Result<Vec<u64>, KernelError> {
        let proc = self
            .processes
            .get(&pid)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        let vma = proc.find_vma(vaddr).ok_or(KernelError::BadAddress(vaddr))?;
        let mut frames = Vec::new();
        for page in 0..vma.page_count() {
            let va = vma.start + page * vma.page_size.bytes();
            if let Some(walk) = pthammer_machine::software_walk(&self.machine, proc.cr3, va) {
                frames.push(walk.paddr.frame_number());
            }
        }
        Ok(frames)
    }

    /// Populates every page of the given range (builds page tables and
    /// allocates backing frames).
    pub fn populate_range(
        &mut self,
        pid: Pid,
        start: VirtAddr,
        length: u64,
    ) -> Result<(), KernelError> {
        let (page_size, backing, vma_start, vma_len) = {
            let proc = self
                .processes
                .get(&pid)
                .ok_or(KernelError::NoSuchProcess(pid))?;
            let vma = proc.find_vma(start).ok_or(KernelError::BadAddress(start))?;
            (vma.page_size, vma.backing.clone(), vma.start, vma.length)
        };
        let end = VirtAddr::new(
            (start + length)
                .as_u64()
                .min((vma_start + vma_len).as_u64()),
        );

        // Fast path: a 4 KiB area backed by a single shared frame fills whole
        // Level-1 page tables with identical entries; build each fully-covered
        // 2 MiB chunk's L1PT in one uniform write. This is what makes the
        // paper's multi-gigabyte page-table spray tractable to simulate.
        if page_size == PageSize::Base4K {
            if let VmaBacking::SharedFrames { frames } = &backing {
                if frames.len() == 1 {
                    let shared = frames[0];
                    let leaf =
                        Pte::page(PhysAddr::from_frame(shared, 0), PteFlags::user_rw()).raw();
                    let mut va = start.as_u64();
                    while va < end.as_u64() {
                        let chunk_base = va & !(HUGE_PAGE_SIZE - 1);
                        let chunk_end = chunk_base + HUGE_PAGE_SIZE;
                        let fully_covered = chunk_base >= vma_start.as_u64()
                            && chunk_end <= (vma_start + vma_len).as_u64()
                            && chunk_base >= start.as_u64()
                            && chunk_end <= end.as_u64();
                        if fully_covered {
                            self.populate_aliased_chunk(pid, VirtAddr::new(chunk_base), leaf)?;
                            va = chunk_end;
                        } else {
                            self.populate_page(pid, VirtAddr::new(va))?;
                            va += PAGE_SIZE;
                        }
                    }
                    return Ok(());
                }
            }
        }

        let step = page_size.bytes();
        let mut va = start.as_u64();
        while va < end.as_u64() {
            self.populate_page(pid, VirtAddr::new(va))?;
            va += step;
        }
        Ok(())
    }

    /// Builds the complete Level-1 page table for one 2 MiB chunk whose 512
    /// entries are all identical (single shared backing frame).
    fn populate_aliased_chunk(
        &mut self,
        pid: Pid,
        chunk_base: VirtAddr,
        leaf_pte: u64,
    ) -> Result<(), KernelError> {
        let pd = self.ensure_table(pid, chunk_base, 2)?;
        let pde_paddr = pd + chunk_base.pt_index(2) * 8;
        let pde = Pte::from_raw(self.machine.phys_read_u64(pde_paddr));
        let l1pt_frame = if pde.present() {
            pde.frame().frame_number()
        } else {
            let frame = self.alloc_frame(FramePurpose::PageTable { level: 1, pid })?;
            self.machine
                .phys_write_u64(pde_paddr, Pte::table(PhysAddr::from_frame(frame, 0)).raw());
            if let Some(proc) = self.processes.get_mut(&pid) {
                proc.l1pt_frames.push(frame);
            }
            frame
        };
        self.machine.phys_write_frame_uniform(l1pt_frame, leaf_pte);
        Ok(())
    }

    /// Populates the single page containing `vaddr`.
    pub fn populate_page(&mut self, pid: Pid, vaddr: VirtAddr) -> Result<(), KernelError> {
        let (page_size, backing, vma_start) = {
            let proc = self
                .processes
                .get(&pid)
                .ok_or(KernelError::NoSuchProcess(pid))?;
            let vma = proc.find_vma(vaddr).ok_or(KernelError::BadAddress(vaddr))?;
            (vma.page_size, vma.backing.clone(), vma.start)
        };
        match page_size {
            PageSize::Base4K => {
                let page_va = vaddr.page_base();
                let page_index = (page_va - vma_start) / PAGE_SIZE;
                let frame = match &backing {
                    VmaBacking::SharedFrames { frames } => {
                        frames[(page_index % frames.len() as u64) as usize]
                    }
                    VmaBacking::Anonymous { fill_pattern } => {
                        let frame = self.alloc_frame(FramePurpose::UserPage { pid })?;
                        self.machine.phys_write_frame_uniform(frame, *fill_pattern);
                        frame
                    }
                };
                self.map_4k(pid, page_va, frame)
            }
            PageSize::Huge2M => {
                let page_va = vaddr.huge_page_base();
                let fill = match &backing {
                    VmaBacking::Anonymous { fill_pattern } => *fill_pattern,
                    VmaBacking::SharedFrames { .. } => {
                        return Err(KernelError::InvalidArgument(
                            "shared-frame mappings must use 4 KiB pages".to_string(),
                        ))
                    }
                };
                // 2 MiB of physically contiguous, aligned frames.
                let base_frame = self
                    .buddy
                    .alloc_order(9, false)
                    .ok_or(KernelError::OutOfMemory)?;
                self.stats.user_frames += PTES_PER_TABLE;
                for f in base_frame..base_frame + PTES_PER_TABLE {
                    self.machine.phys_write_frame_uniform(f, fill);
                }
                self.map_2m(pid, page_va, base_frame)
            }
        }
    }

    /// Raw value of the leaf (Level-1 or huge PDE) entry currently installed
    /// for `vaddr`, if the walk reaches it; `None` when an intermediate level
    /// is missing. An intermediate entry whose table lies past installed
    /// DRAM is corrupted and is returned in place of the leaf.
    fn leaf_entry_raw(&self, pid: Pid, vaddr: VirtAddr) -> Option<u64> {
        let proc = self.processes.get(&pid)?;
        let capacity = self.machine.config().dram.geometry.capacity_bytes();
        let mut table = proc.cr3;
        for level in (1..=4u8).rev() {
            let entry_paddr = table + vaddr.pt_index(level) * 8;
            let raw = self.machine.phys_read_u64(entry_paddr);
            let entry = Pte::from_raw(raw);
            if level == 1 || (level == 2 && entry.huge()) {
                return Some(raw);
            }
            if !entry.present() {
                return None;
            }
            table = entry.frame();
            if table.as_u64() + PAGE_SIZE > capacity {
                return Some(raw);
            }
        }
        None
    }

    fn handle_fault(&mut self, pid: Pid, vaddr: VirtAddr) -> Result<(), KernelError> {
        self.stats.faults_handled += 1;
        self.machine
            .advance_clock(Cycles::new(self.config.fault_latency));
        // Demand paging only installs mappings for pages that have never been
        // populated. A page whose leaf entry exists but is corrupted (e.g. a
        // rowhammer flip cleared the present bit or pointed the frame outside
        // of DRAM) is *not* silently re-mapped — the kernel would deliver a
        // SIGBUS; we surface that as `BadAddress`.
        if let Some(raw) = self.leaf_entry_raw(pid, vaddr) {
            if raw != 0 {
                return Err(KernelError::BadAddress(vaddr));
            }
        }
        self.populate_page(pid, vaddr)
    }

    // ------------------------------------------------------------------
    // User-level memory operations (with demand paging).
    // ------------------------------------------------------------------

    fn with_fault_retry<F>(
        &mut self,
        pid: Pid,
        vaddr: VirtAddr,
        mut op: F,
    ) -> Result<VirtualAccess, KernelError>
    where
        F: FnMut(&mut Machine, PhysAddr) -> VirtualAccess,
    {
        let cr3 = self.cr3_of(pid)?;
        let acc = op(&mut self.machine, cr3);
        if acc.fault.is_none() {
            return Ok(acc);
        }
        self.handle_fault(pid, vaddr)?;
        let acc = op(&mut self.machine, cr3);
        if acc.fault.is_some() {
            return Err(KernelError::BadAddress(vaddr));
        }
        Ok(acc)
    }

    /// Reads the u64 at `vaddr` in the process's address space.
    pub fn read_u64(&mut self, pid: Pid, vaddr: VirtAddr) -> Result<VirtualAccess, KernelError> {
        self.with_fault_retry(pid, vaddr, |m, cr3| m.read_u64(cr3, vaddr))
    }

    /// Writes the u64 at `vaddr` in the process's address space.
    pub fn write_u64(
        &mut self,
        pid: Pid,
        vaddr: VirtAddr,
        value: u64,
    ) -> Result<VirtualAccess, KernelError> {
        self.with_fault_retry(pid, vaddr, |m, cr3| m.write_u64(cr3, vaddr, value))
    }

    /// Touches `vaddr` (timed read whose value is ignored).
    pub fn access(&mut self, pid: Pid, vaddr: VirtAddr) -> Result<VirtualAccess, KernelError> {
        self.read_u64(pid, vaddr)
    }

    /// Touches `vaddr` through the lean path: identical simulated behavior
    /// and latency accounting to [`System::access`], but without reading the
    /// data value or assembling a full [`VirtualAccess`]. The hammer loop's
    /// per-iteration target touches go through this.
    pub fn touch(&mut self, pid: Pid, vaddr: VirtAddr) -> Result<TouchAccess, KernelError> {
        let cr3 = self.cr3_of(pid)?;
        let acc = self.machine.touch_lean(cr3, vaddr);
        if acc.fault.is_none() {
            return Ok(acc);
        }
        self.handle_fault(pid, vaddr)?;
        let acc = self.machine.touch_lean(cr3, vaddr);
        if acc.fault.is_some() {
            return Err(KernelError::BadAddress(vaddr));
        }
        Ok(acc)
    }

    /// Accesses a sequence of addresses back-to-back (pipelined), handling
    /// any demand-paging faults along the way. Returns the total latency.
    pub fn access_batch(&mut self, pid: Pid, vaddrs: &[VirtAddr]) -> Result<Cycles, KernelError> {
        self.access_batch_passes(pid, vaddrs, 1)
    }

    /// Runs [`System::access_batch`] over the same address sequence `passes`
    /// times in one call (the repeated-traversal pattern of LLC eviction),
    /// with one batch entry/exit. Behavior is identical for populated
    /// mappings — the only ones eviction traversal touches; a page that
    /// demand-faults faults once per pass, and is populated (and its fault
    /// latency charged) only for the first occurrence.
    pub fn access_batch_passes(
        &mut self,
        pid: Pid,
        vaddrs: &[VirtAddr],
        passes: usize,
    ) -> Result<Cycles, KernelError> {
        let cr3 = self.cr3_of(pid)?;
        let (mut total, faults) = self.machine.access_batch_passes(cr3, vaddrs, passes);
        let mut handled: Vec<VirtAddr> = Vec::new();
        for fault in faults {
            if handled.contains(&fault.vaddr) {
                continue;
            }
            handled.push(fault.vaddr);
            self.handle_fault(pid, fault.vaddr)?;
            let (extra, refaults) = self.machine.access_batch(cr3, &[fault.vaddr]);
            total += extra;
            if !refaults.is_empty() {
                return Err(KernelError::BadAddress(fault.vaddr));
            }
        }
        Ok(total)
    }

    /// Flushes the cache line containing `vaddr` (`clflush`).
    pub fn clflush(&mut self, pid: Pid, vaddr: VirtAddr) -> Result<VirtualAccess, KernelError> {
        self.with_fault_retry(pid, vaddr, |m, cr3| m.clflush(cr3, vaddr))
    }

    /// Reads the time-stamp counter.
    pub fn rdtsc(&self) -> u64 {
        self.machine.rdtsc()
    }

    /// Advances the clock by `cycles` (models computation such as the NOP
    /// padding of Figure 5).
    pub fn advance_cycles(&mut self, cycles: u64) {
        self.machine.advance_clock(Cycles::new(cycles));
    }

    /// Simulated seconds elapsed since boot.
    pub fn seconds_since_boot(&self) -> f64 {
        Cycles::new(self.machine.rdtsc()).as_seconds(self.machine.clock_hz())
    }

    // ------------------------------------------------------------------
    // Evaluation oracle (the paper's "kernel module", not used to attack).
    // ------------------------------------------------------------------

    /// Physical address of the Level-1 PTE mapping `vaddr` for `pid`.
    pub fn oracle_l1pte_paddr(&self, pid: Pid, vaddr: VirtAddr) -> Option<PhysAddr> {
        let proc = self.processes.get(&pid)?;
        pthammer_machine::l1pte_paddr(&self.machine, proc.cr3, vaddr)
    }

    /// Physical address that `vaddr` currently translates to for `pid`.
    pub fn oracle_translate(&self, pid: Pid, vaddr: VirtAddr) -> Option<PhysAddr> {
        let proc = self.processes.get(&pid)?;
        pthammer_machine::software_walk(&self.machine, proc.cr3, vaddr).map(|w| w.paddr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pthammer_dram::FlipModelProfile;
    use pthammer_types::MemoryLevel;

    fn system() -> System {
        System::undefended(MachineConfig::test_small(
            FlipModelProfile::invulnerable(),
            3,
        ))
    }

    #[test]
    fn spawn_and_getuid() {
        let mut sys = system();
        let pid = sys.spawn_process(1000).unwrap();
        assert_eq!(sys.getuid(pid).unwrap(), 1000);
        assert_eq!(sys.getuid(999), Err(KernelError::NoSuchProcess(999)));
        let pids = sys.spawn_processes(10, 1000).unwrap();
        assert_eq!(pids.len(), 10);
        assert!(sys.stats().kernel_data_frames >= 1);
    }

    #[test]
    fn mmap_demand_paging_read_write() {
        let mut sys = system();
        let pid = sys.spawn_process(1000).unwrap();
        let va = sys
            .mmap(
                pid,
                16 * PAGE_SIZE,
                MmapOptions {
                    backing: VmaBacking::Anonymous { fill_pattern: 0xAB },
                    ..MmapOptions::default()
                },
            )
            .unwrap();
        // First touch faults and populates.
        let acc = sys.read_u64(pid, va).unwrap();
        assert_eq!(acc.value, 0xAB);
        assert_eq!(sys.stats().faults_handled, 1);
        // Writes persist.
        sys.write_u64(pid, va + 8, 0x1122_3344).unwrap();
        assert_eq!(sys.read_u64(pid, va + 8).unwrap().value, 0x1122_3344);
        // Pages of the same VMA get distinct frames.
        let pa0 = sys.oracle_translate(pid, va).unwrap();
        sys.read_u64(pid, va + PAGE_SIZE).unwrap();
        let pa1 = sys.oracle_translate(pid, va + PAGE_SIZE).unwrap();
        assert_ne!(pa0.frame_number(), pa1.frame_number());
    }

    #[test]
    fn access_outside_any_vma_is_bad_address() {
        let mut sys = system();
        let pid = sys.spawn_process(1000).unwrap();
        let err = sys.read_u64(pid, VirtAddr::new(0x7777_0000)).unwrap_err();
        assert!(matches!(err, KernelError::BadAddress(_)));
    }

    #[test]
    fn table_pointer_beyond_dram_is_bad_address() {
        let mut sys = system();
        let pid = sys.spawn_process(1000).unwrap();
        let va = sys.mmap(pid, PAGE_SIZE, MmapOptions::default()).unwrap();
        sys.read_u64(pid, va).unwrap();
        // Point the PDE mapping `va` past installed DRAM, as a flipped high
        // frame bit would.
        let mut table = sys.cr3_of(pid).unwrap();
        for level in [4u8, 3] {
            let raw = sys.machine.phys_read_u64(table + va.pt_index(level) * 8);
            table = Pte::from_raw(raw).frame();
        }
        let capacity = sys.machine.config().dram.geometry.capacity_bytes();
        let beyond = Pte::table(PhysAddr::new(capacity + 0x1000));
        sys.machine
            .phys_write_u64(table + va.pt_index(2) * 8, beyond.raw());
        sys.machine.flush_translation_caches();
        assert_eq!(sys.read_u64(pid, va), Err(KernelError::BadAddress(va)));
        assert_eq!(sys.touch(pid, va).unwrap_err(), KernelError::BadAddress(va));
        assert_eq!(sys.oracle_translate(pid, va), None);
    }

    #[test]
    fn mmap_rejects_bad_arguments() {
        let mut sys = system();
        let pid = sys.spawn_process(1000).unwrap();
        assert!(matches!(
            sys.mmap(pid, 100, MmapOptions::default()),
            Err(KernelError::InvalidArgument(_))
        ));
        assert!(matches!(
            sys.mmap(
                pid,
                HUGE_PAGE_SIZE,
                MmapOptions {
                    page_size: PageSize::Huge2M,
                    ..MmapOptions::default()
                }
            ),
            Err(KernelError::SuperpagesDisabled)
        ));
    }

    #[test]
    fn populated_mapping_does_not_fault() {
        let mut sys = system();
        let pid = sys.spawn_process(1000).unwrap();
        let va = sys
            .mmap(
                pid,
                8 * PAGE_SIZE,
                MmapOptions {
                    populate: true,
                    backing: VmaBacking::Anonymous { fill_pattern: 7 },
                    ..MmapOptions::default()
                },
            )
            .unwrap();
        assert_eq!(sys.stats().faults_handled, 0);
        let acc = sys.read_u64(pid, va + 3 * PAGE_SIZE).unwrap();
        assert_eq!(acc.value, 7);
        assert_eq!(sys.stats().faults_handled, 0);
    }

    #[test]
    fn shared_frame_spray_creates_l1pts_cheaply() {
        let mut sys = system();
        let pid = sys.spawn_process(1000).unwrap();
        // One real user page...
        let user_va = sys
            .mmap(
                pid,
                PAGE_SIZE,
                MmapOptions {
                    populate: true,
                    backing: VmaBacking::Anonymous {
                        fill_pattern: 0x5050,
                    },
                    ..MmapOptions::default()
                },
            )
            .unwrap();
        let frames = sys.frames_of_mapping(pid, user_va).unwrap();
        assert_eq!(frames.len(), 1);
        // ...aliased over 64 MiB of virtual address space.
        let spray_len = 64 * 1024 * 1024u64;
        let spray_va = sys
            .mmap(
                pid,
                spray_len,
                MmapOptions {
                    populate: true,
                    backing: VmaBacking::SharedFrames {
                        frames: frames.clone(),
                    },
                    ..MmapOptions::default()
                },
            )
            .unwrap();
        // 64 MiB / 2 MiB = 32 Level-1 page tables were created.
        let proc = sys.process(pid).unwrap();
        assert!(
            proc.l1pt_frames.len() >= 32,
            "got {}",
            proc.l1pt_frames.len()
        );
        assert!(sys.stats().l1pt_frames >= 32);
        // Every sprayed page reads the shared pattern and translates to the
        // single shared frame.
        for offset in [0u64, PAGE_SIZE, 1 << 20, spray_len - PAGE_SIZE] {
            let acc = sys.read_u64(pid, spray_va + offset).unwrap();
            assert_eq!(acc.value, 0x5050, "offset {offset:#x}");
            assert_eq!(
                sys.oracle_translate(pid, spray_va + offset)
                    .unwrap()
                    .frame_number(),
                frames[0]
            );
        }
        assert_eq!(sys.stats().faults_handled, 0, "spray was eagerly populated");
        // L1PT frames are mostly consecutive (buddy allocator behaviour).
        let l1pts = &sys.process(pid).unwrap().l1pt_frames;
        let consecutive = l1pts.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(
            consecutive * 10 >= (l1pts.len() - 1) * 8,
            "≥80% consecutive"
        );
    }

    #[test]
    fn superpage_mapping_translates_and_reads() {
        let mut sys = System::new(
            MachineConfig::test_small(FlipModelProfile::invulnerable(), 3),
            KernelConfig::with_superpages(),
            Box::new(DefaultPolicy::new()),
        );
        let pid = sys.spawn_process(1000).unwrap();
        let va = sys
            .mmap(
                pid,
                4 * HUGE_PAGE_SIZE,
                MmapOptions {
                    page_size: PageSize::Huge2M,
                    populate: true,
                    backing: VmaBacking::Anonymous { fill_pattern: 0xEE },
                },
            )
            .unwrap();
        let acc = sys
            .read_u64(pid, va + 3 * HUGE_PAGE_SIZE + 0x1234 * 8)
            .unwrap();
        assert_eq!(acc.value, 0xEE);
        // Physical base shares the low 21 bits with the virtual address.
        let pa = sys.oracle_translate(pid, va).unwrap();
        assert_eq!(pa.as_u64() % HUGE_PAGE_SIZE, va.as_u64() % HUGE_PAGE_SIZE);
        // No L1 page tables are involved for superpages.
        assert!(sys.oracle_l1pte_paddr(pid, va).is_none());
    }

    #[test]
    fn clflush_and_timing_visible_to_user() {
        let mut sys = system();
        let pid = sys.spawn_process(1000).unwrap();
        let va = sys
            .mmap(
                pid,
                PAGE_SIZE,
                MmapOptions {
                    populate: true,
                    ..MmapOptions::default()
                },
            )
            .unwrap();
        sys.read_u64(pid, va).unwrap();
        let warm = sys.read_u64(pid, va).unwrap();
        assert_eq!(warm.data_level, Some(MemoryLevel::L1));
        sys.clflush(pid, va).unwrap();
        let t0 = sys.rdtsc();
        let cold = sys.read_u64(pid, va).unwrap();
        let t1 = sys.rdtsc();
        assert_eq!(cold.data_level, Some(MemoryLevel::Dram));
        assert!(t1 - t0 >= cold.latency.as_u64());
        assert!(cold.latency > warm.latency);
    }

    #[test]
    fn access_batch_handles_faults() {
        let mut sys = system();
        let pid = sys.spawn_process(1000).unwrap();
        let va = sys
            .mmap(pid, 4 * PAGE_SIZE, MmapOptions::default())
            .unwrap();
        let addrs: Vec<VirtAddr> = (0..4).map(|i| va + i * PAGE_SIZE).collect();
        let total = sys.access_batch(pid, &addrs).unwrap();
        assert!(total.as_u64() > 0);
        assert_eq!(sys.stats().faults_handled, 4);
    }

    #[test]
    fn oracle_l1pte_paddr_points_into_an_l1pt_frame() {
        let mut sys = system();
        let pid = sys.spawn_process(1000).unwrap();
        let va = sys
            .mmap(
                pid,
                PAGE_SIZE,
                MmapOptions {
                    populate: true,
                    ..MmapOptions::default()
                },
            )
            .unwrap();
        let pte_pa = sys.oracle_l1pte_paddr(pid, va).unwrap();
        let proc = sys.process(pid).unwrap();
        assert!(proc.l1pt_frames.contains(&pte_pa.frame_number()));
    }
}
