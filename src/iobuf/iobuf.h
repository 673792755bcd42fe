// IOBuf — ownership descriptor + view over a region of memory (paper §3.6).
//
// "An IOBuf is a descriptor which manages ownership of a region of memory as well as a view of
// a portion of that memory." Device drivers pass IOBufs up the stack synchronously; each
// protocol layer Advance()s past its header rather than copying; applications receive the same
// descriptor the DMA engine filled. Sends accept *chains* of IOBufs so headers and payload
// from different owners are scatter/gathered without copies.
//
// Layout of a single buffer:
//
//     buffer_                data_                   data_+length_      buffer_+capacity_
//        |--- headroom ---------|------ view ------------|----- tailroom -----|
//
// Chains are singly linked through owned `next_` pointers; typical chains are 1–4 elements
// (header + payload), so tail walks are O(1)-ish and kept simple.
//
// Ownership is reference-counted (folly/EbbRT style): owned storage lives behind a shared
// control block so Clone()/Split() produce additional zero-copy views of the same bytes.
// Clones therefore observe writes through any sibling view — the datapath treats received
// buffers as immutable once shared.
//
// Allocation (§3.4): owned storage is ONE block — the SharedStorage control header and the
// bytes co-allocated — taken from the current machine's per-core GeneralPurposeAllocator
// (slab fast path, no atomics) whenever a machine context is installed, falling back to
// std::malloc only outside any machine (unit tests, world actions). The IOBuf descriptor
// itself is slab-backed the same way via class operator new. Release routes the block home
// from wherever the last view dies (mem::FreeRouted), so the steady-state datapath does
// zero malloc/free calls; mem::stats() counts every allocation and each heap fallback.
//
// Lifetime invariant: storage allocated under a machine context lives in that machine's
// arena — exactly like the DMA-able memory it models, it dies with the machine. Release
// every owned buffer before tearing the machine down (tests: before the SimWorld is
// destroyed); a view that outlives its machine dangles into an unmapped arena.
#ifndef EBBRT_SRC_IOBUF_IOBUF_H_
#define EBBRT_SRC_IOBUF_IOBUF_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "src/mem/gp_allocator.h"
#include "src/platform/debug.h"

namespace ebbrt {

class BufferPool;

class IOBuf {
 public:
  // Free-function type invoked to release externally-owned storage.
  using FreeFn = void (*)(void* buffer, void* arg);

  // A buffer of `capacity` bytes with the view covering the whole capacity (EbbRT's
  // MakeUniqueIOBuf convention). When `zero` is set the storage is zero-filled.
  static std::unique_ptr<IOBuf> Create(std::size_t capacity, bool zero = false);

  // A buffer of `capacity` bytes with an *empty* view positioned `headroom` bytes in; callers
  // extend with Append()/Retreat(). Useful for building headers in front of payload.
  static std::unique_ptr<IOBuf> CreateReserve(std::size_t capacity, std::size_t headroom);

  // Compile-time-capacity variant of CreateReserve for buffers whose size is static (protocol
  // header reserves): the GP size-class computation constant-folds (AllocFor<N>), leaving
  // only the per-core slab freelist pop — the property the paper observed the compiler give
  // sized malloc calls (§3.4).
  template <std::size_t Capacity>
  static std::unique_ptr<IOBuf> CreateReserveFor(std::size_t headroom) {
    constexpr std::size_t kBlock = kStorageHeaderBytes + (Capacity != 0 ? Capacity : 1);
    return FromStorageBlock(TryGpBlockFor<kBlock>(), Capacity, headroom, /*length=*/0,
                            /*zero=*/false);
  }

  // Copies [data, data+len) into a new owned buffer (with optional headroom).
  static std::unique_ptr<IOBuf> CopyBuffer(const void* data, std::size_t len,
                                           std::size_t headroom = 0);
  static std::unique_ptr<IOBuf> CopyBuffer(std::string_view sv, std::size_t headroom = 0) {
    return CopyBuffer(sv.data(), sv.size(), headroom);
  }

  // Wraps external memory without taking ownership. The caller guarantees the memory outlives
  // the IOBuf (e.g. static protocol constants, arena-backed stores).
  static std::unique_ptr<IOBuf> WrapBuffer(const void* data, std::size_t len);

  // Takes ownership of external memory; `free_fn(buffer, arg)` is called when the last view
  // of the storage is destroyed.
  static std::unique_ptr<IOBuf> TakeOwnership(void* buffer, std::size_t capacity,
                                              std::size_t length, FreeFn free_fn, void* arg);

  ~IOBuf();

  IOBuf(const IOBuf&) = delete;
  IOBuf& operator=(const IOBuf&) = delete;

  // --- View of this element ---------------------------------------------------------------
  const std::uint8_t* Data() const { return data_; }
  std::uint8_t* WritableData() { return data_; }
  std::size_t Length() const { return length_; }
  std::size_t Capacity() const { return capacity_; }
  const std::uint8_t* Buffer() const { return buffer_; }
  const std::uint8_t* Tail() const { return data_ + length_; }
  std::uint8_t* WritableTail() { return data_ + length_; }
  std::size_t Headroom() const { return static_cast<std::size_t>(data_ - buffer_); }
  std::size_t Tailroom() const {
    return static_cast<std::size_t>((buffer_ + capacity_) - Tail());
  }

  // True when other views (clones / splits) reference this element's storage.
  bool Shared() const;

  // Number of live views (this one included) of this element's owned storage; 0 for a
  // non-owning view. Lets tests assert a parse/join was zero-copy: a value extracted by
  // sharing keeps the producer's count > 1, a value extracted by memcpy drops to a fresh
  // storage block with count 1.
  std::size_t StorageRefCount() const;

  // Shrinks the view from the front (protocol layers step past their headers).
  void Advance(std::size_t amount) {
    Kassert(amount <= length_, "IOBuf::Advance past end");
    data_ += amount;
    length_ -= amount;
  }

  // Grows the view backwards into headroom (prepending a header into reserved space).
  void Retreat(std::size_t amount) {
    Kassert(amount <= Headroom(), "IOBuf::Retreat past start");
    data_ -= amount;
    length_ += amount;
  }

  // Grows the view forward into tailroom.
  void Append(std::size_t amount) {
    Kassert(amount <= Tailroom(), "IOBuf::Append past capacity");
    length_ += amount;
  }

  void TrimEnd(std::size_t amount) {
    Kassert(amount <= length_, "IOBuf::TrimEnd past start");
    length_ -= amount;
  }

  void TrimStart(std::size_t amount) { Advance(amount); }

  // Reinterprets the front of the view as a (packed) structure — Figure 2's
  // `buf->Get<EthernetHeader>()`.
  template <typename T>
  T& Get(std::size_t offset = 0) {
    Kassert(offset + sizeof(T) <= length_, "IOBuf::Get: view too short");
    return *reinterpret_cast<T*>(data_ + offset);
  }

  template <typename T>
  const T& Get(std::size_t offset = 0) const {
    Kassert(offset + sizeof(T) <= length_, "IOBuf::Get: view too short");
    return *reinterpret_cast<const T*>(data_ + offset);
  }

  // --- Chain operations ---------------------------------------------------------------------
  IOBuf* Next() { return next_.get(); }
  const IOBuf* Next() const { return next_.get(); }
  bool IsChained() const { return next_ != nullptr; }

  // Appends `chain` at the tail of this chain (scatter/gather send path).
  void AppendChain(std::unique_ptr<IOBuf> chain);

  // Splices `parts` into one chain in order (nullptr entries skipped), returning the head.
  // O(total elements): the running tail is carried across parts instead of re-walking from
  // the head per append, which matters when a batched reply splices hundreds of per-key
  // view pairs (AppendChain in a loop is quadratic in chain length). Zero-copy: only next_
  // pointers move.
  static std::unique_ptr<IOBuf> JoinChains(std::vector<std::unique_ptr<IOBuf>> parts);

  // Detaches and returns everything after this element.
  std::unique_ptr<IOBuf> Pop() { return std::move(next_); }

  std::size_t CountChainElements() const;
  std::size_t ComputeChainDataLength() const;

  // Zero-copy clone: a new chain of views that share (and refcount) this chain's storage.
  // The cheap path everywhere a second reader needs the same bytes.
  std::unique_ptr<IOBuf> Clone() const;
  // Clones only this element (no chain walk), sharing its storage.
  std::unique_ptr<IOBuf> CloneOne() const;

  // Deep copy of the whole chain into a single new owned buffer — used where the bytes must
  // be detached from the producer's storage (e.g. the simulated fabric boundary).
  std::unique_ptr<IOBuf> DeepClone() const;

  // Splits the chain at byte offset `n`: this chain keeps [0, n), the returned chain holds
  // [n, end). An element straddling the boundary is shared between the two chains via
  // refcounted views — no bytes are copied.
  std::unique_ptr<IOBuf> Split(std::size_t n);

  // Flattens the whole chain into this element, reallocating if needed. Used sparingly (e.g.
  // reassembling an application record that crossed segment boundaries); the fast paths never
  // coalesce.
  void Coalesce();

  // Copies the first `len` bytes of the chain's data into `dst` (chain-aware memcpy-out).
  void CopyOut(void* dst, std::size_t len, std::size_t offset = 0) const;

  std::string_view AsStringView() const {
    return {reinterpret_cast<const char*>(data_), length_};
  }

  // The descriptor itself is slab-backed (AllocFor<sizeof(IOBuf)> constant-folds to the
  // per-core freelist pop); delete routes the block home by pointer, so a descriptor may be
  // destroyed on a different core/machine/context than allocated it.
  static void* operator new(std::size_t size);
  static void operator delete(void* p);
  static void operator delete(void* p, std::size_t) { operator delete(p); }

  // True when this element's owned storage control block is embedded in the same allocation
  // as the bytes (the one-slab-allocation layout; asserted by tests).
  bool StorageEmbedded() const;

  // The compile-time-size slab attempt: nullptr when no machine context / no memory
  // subsystem / arena exhausted — callers fall back to the generic block path. The single
  // place the context->GP-root lookup lives for static sizes (AllocBlock in iobuf.cc is its
  // runtime-size twin).
  template <std::size_t N>
  static void* TryGpBlockFor() {
    if (!HaveContext()) {
      return nullptr;
    }
    auto* root = CurrentRuntime().TryGetSubsystem<GeneralPurposeAllocatorRoot>(
        Subsystem::kGeneralPurposeAllocator);
    if (root == nullptr) {
      return nullptr;
    }
    return GeneralPurposeAllocator::Instance()->AllocFor<N>();
  }

  // Co-allocated block layout: [SharedStorage][bytes]; the header is padded so the data area
  // keeps max_align.
  static constexpr std::size_t kStorageHeaderBytes = 64;

 private:
  friend class BufferPool;
  friend class BufferPoolRoot;

  // Shared control block for owned storage. Non-owning views carry no block. The count is
  // atomic because clones of a received chain may be retained by another core (e.g. a
  // response queued on a different connection) and released there. `dispose` releases the
  // buffer AND the control block when the last view dies — each allocation flavor
  // (co-allocated slab/heap block, external TakeOwnership, pooled frame) installs its own.
  struct SharedStorage {
    std::uint8_t* buffer;
    void (*dispose)(SharedStorage*);
    FreeFn free_fn;    // TakeOwnership's user callback (nullptr otherwise)
    void* free_arg;    // TakeOwnership arg, or the owning BufferPoolRoot for pooled frames
    std::uint32_t origin_core;  // machine core a pooled frame belongs to
    std::atomic<std::size_t> refs{1};
  };
  static_assert(sizeof(SharedStorage) <= kStorageHeaderBytes,
                "SharedStorage must fit the co-allocated header");

  IOBuf(std::uint8_t* buffer, std::size_t capacity, std::uint8_t* data, std::size_t length,
        SharedStorage* storage)
      : buffer_(buffer),
        capacity_(capacity),
        data_(data),
        length_(length),
        storage_(storage) {}

  // Finishes a Create/CreateReserve: `block` is a kStorageHeaderBytes+capacity co-allocated
  // slab block, or nullptr to take the heap-fallback path. Defined out of line so the
  // compile-time CreateReserveFor fast path stays small at call sites.
  static std::unique_ptr<IOBuf> FromStorageBlock(void* block, std::size_t capacity,
                                                 std::size_t headroom, std::size_t length,
                                                 bool zero);
  static SharedStorage* AllocateStorage(std::size_t capacity, bool zero);
  // Initializes the SharedStorage header of a co-allocated [header|bytes] block and counts
  // the allocation (`slab` = the block came from the GP/slab path, not a malloc fallback).
  static SharedStorage* InitCoAllocatedBlock(void* block, std::size_t bytes, bool zero,
                                             bool slab);
  static void DisposeCoAllocated(SharedStorage* storage);
  static void DisposeExternal(SharedStorage* storage);
  void ReleaseStorage();

  std::uint8_t* buffer_;
  std::size_t capacity_;
  std::uint8_t* data_;
  std::size_t length_;
  SharedStorage* storage_;  // nullptr => non-owning view
  std::unique_ptr<IOBuf> next_;
};

// Cursor for parsing data that may span chain elements. Protocol parsers Get<T>() headers and
// Advance() through the chain without caring about element boundaries (as long as any single
// Get does not straddle one — parsers coalesce records when that rule would break).
class DataPointer {
 public:
  explicit DataPointer(const IOBuf* buf) : buf_(buf) {}

  template <typename T>
  const T& Get() {
    const T& result = GetNoAdvance<T>();
    Advance(sizeof(T));
    return result;
  }

  template <typename T>
  const T& GetNoAdvance() const {
    Kassert(buf_ != nullptr, "DataPointer: past end");
    Kassert(offset_ + sizeof(T) <= buf_->Length(), "DataPointer: Get straddles chain element");
    return *reinterpret_cast<const T*>(buf_->Data() + offset_);
  }

  const std::uint8_t* Data() const {
    Kassert(buf_ != nullptr, "DataPointer: past end");
    return buf_->Data() + offset_;
  }

  void Advance(std::size_t amount) {
    while (amount > 0) {
      Kassert(buf_ != nullptr, "DataPointer: advance past end");
      std::size_t here = buf_->Length() - offset_;
      if (amount < here) {
        offset_ += amount;
        return;
      }
      amount -= here;
      buf_ = buf_->Next();
      offset_ = 0;
    }
  }

  std::size_t Remaining() const {
    std::size_t total = 0;
    const IOBuf* buf = buf_;
    std::size_t off = offset_;
    while (buf != nullptr) {
      total += buf->Length() - off;
      off = 0;
      buf = buf->Next();
    }
    return total;
  }

  // Chain-aware copy-out from the cursor position (does not advance).
  void CopyOut(void* dst, std::size_t len) const;

 private:
  const IOBuf* buf_;
  std::size_t offset_ = 0;
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_IOBUF_IOBUF_H_
