// Simulated host memory with RDMA-style registration.
//
// An AddressSpace is one host's RDMA-visible memory: a flat byte array
// addressed by 64-bit offsets. Server processes carve regions out of it with
// a bump allocator at setup time and register them to obtain rkeys; every
// remote access is validated against (rkey, address range, access rights)
// exactly as an RDMA NIC's MTT/MPT would.
//
// Regions can carry the kOnNic attribute: they model the NIC's user-visible
// on-chip SRAM (256 KB on a ConnectX-5, §4.2 of the paper). Semantics are
// identical to host memory; the *timing* layer checks IsOnNic() to decide
// whether an access costs a PCIe round trip.
#ifndef PRISM_SRC_RDMA_MEMORY_H_
#define PRISM_SRC_RDMA_MEMORY_H_

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace prism::rdma {

using Addr = uint64_t;
using RKey = uint32_t;

// Access rights, OR-able.
enum Access : uint32_t {
  kRemoteRead = 1u << 0,
  kRemoteWrite = 1u << 1,
  kRemoteAtomic = 1u << 2,
  kRemoteAll = kRemoteRead | kRemoteWrite | kRemoteAtomic,
};

// Region attributes.
enum RegionAttr : uint32_t {
  kHostMemory = 0,
  kOnNic = 1u << 0,
};

struct MemoryRegion {
  Addr base = 0;
  uint64_t length = 0;
  RKey rkey = 0;
  uint32_t access = 0;
  uint32_t attrs = kHostMemory;

  bool Contains(Addr addr, uint64_t len) const {
    return addr >= base && len <= length && addr - base <= length - len;
  }
};

class AddressSpace {
 public:
  explicit AddressSpace(uint64_t capacity);

  uint64_t capacity() const { return capacity_; }

  // Carves a fresh range out of the space (setup-time bump allocation; this
  // models the server process malloc'ing + pinning memory, not PRISM's
  // ALLOCATE primitive).
  Result<Addr> Carve(uint64_t bytes, uint64_t align = 8);

  // Registers [base, base+length) for remote access and returns the region
  // with its newly minted rkey.
  Result<MemoryRegion> Register(Addr base, uint64_t length, uint32_t access,
                                uint32_t attrs = kHostMemory);

  // Convenience: Carve + Register in one step.
  Result<MemoryRegion> CarveAndRegister(uint64_t bytes, uint32_t access,
                                        uint32_t attrs = kHostMemory);

  // Invalidates a registration: subsequent Validate() calls against this
  // rkey NACK with PermissionDenied, exactly as a real NIC MPT drops an
  // MR on ibv_dereg_mr. Operations already in flight are unaffected until
  // they reach validation (validation happens at the target on delivery),
  // which is what makes revoke-while-in-flight races observable. kNotFound
  // for an rkey that was never minted (or already deregistered).
  Status Deregister(RKey rkey);

  // Validates that [addr, addr+len) lies inside the region named by rkey and
  // that the region grants `need` rights. Mirrors NIC MPT/MTT checks: an
  // unknown rkey, a range escaping the region, or missing rights all NACK.
  Status Validate(RKey rkey, Addr addr, uint64_t len, uint32_t need) const;

  const MemoryRegion* FindRegion(RKey rkey) const;

  // True iff [addr, addr+len) falls entirely inside a region registered with
  // kOnNic. Used (a) by the timing models — on-NIC accesses skip the PCIe
  // round trip — and (b) by the PRISM executor's access checks: the on-NIC
  // scratch region is NIC-owned per-connection space, accessible to chained
  // ops regardless of the application rkey (§4.2).
  bool IsOnNic(Addr addr, uint64_t len = 1) const;

  // Raw access, bounds-checked against the whole space (callers must have
  // validated region rights first; Verbs does).
  uint8_t* RawAt(Addr addr, uint64_t len);
  const uint8_t* RawAt(Addr addr, uint64_t len) const;

  // Checked convenience accessors used by server-local application code
  // (which, like a real CPU, bypasses rkey checks).
  uint64_t LoadWord(Addr addr) const;
  void StoreWord(Addr addr, uint64_t value);
  Bytes Load(Addr addr, uint64_t len) const;
  void Store(Addr addr, ByteView data);

 private:
  struct Free {
    void operator()(uint8_t* p) const { std::free(p); }
  };

  uint64_t capacity_;
  uint64_t next_free_ = 64;  // keep address 0 unmapped: null pointer trap
  // calloc'd: a block the allocator maps fresh reads as zero without being
  // written, so pages nothing touches cost no time and no memory.
  std::unique_ptr<uint8_t, Free> data_;
  std::vector<MemoryRegion> regions_;
  RKey next_rkey_ = 0x1000;
};

}  // namespace prism::rdma

#endif  // PRISM_SRC_RDMA_MEMORY_H_
