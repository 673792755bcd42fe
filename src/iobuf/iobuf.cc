#include "src/iobuf/iobuf.h"

#include <new>

namespace ebbrt {

// Blocks route back to whichever machine arena owns them, from any context, or to the heap
// when no arena does: a buffer allocated on one core is released wherever its last view
// dies (another core, a world action, teardown).
void IOBuf::operator delete(void* p) { mem::FreeRouted(p); }

// Dispose for the co-allocated [SharedStorage][bytes] layout: one block, one free.
void IOBuf::DisposeCoAllocated(SharedStorage* storage) { mem::FreeRouted(storage); }

// Dispose for network frames: the same one free, after the frame leaves the live count.
void IOBuf::DisposeFrame(SharedStorage* storage) {
  mem::stats().pool_in_use.fetch_sub(1, std::memory_order_relaxed);
  mem::FreeRouted(storage);
}

// Dispose for TakeOwnership storage: run the user's free callback, then release the
// (separately-allocated) control block.
void IOBuf::DisposeExternal(SharedStorage* storage) {
  if (storage->free_fn != nullptr) {
    storage->free_fn(storage->buffer, storage->free_arg);
  }
  mem::FreeRouted(storage);
}

IOBuf::SharedStorage* IOBuf::InitCoAllocatedBlock(void* block, std::size_t bytes, bool zero) {
  auto* storage = new (block) SharedStorage;
  storage->buffer = static_cast<std::uint8_t*>(block) + kStorageHeaderBytes;
  storage->dispose = &DisposeCoAllocated;
  storage->free_fn = nullptr;
  storage->free_arg = nullptr;
  if (zero) {
    std::memset(storage->buffer, 0, bytes);
  }
  auto& stats = mem::stats();
  stats.iobuf_allocs.fetch_add(1, std::memory_order_relaxed);
  if (mem::FindOwningRoot(block) != nullptr) {
    stats.iobuf_slab_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return storage;
}

std::unique_ptr<IOBuf> IOBuf::FromStorageBlock(void* block, std::size_t capacity,
                                               std::size_t headroom, std::size_t length,
                                               bool zero) {
  Kassert(headroom + length <= (capacity != 0 ? capacity : 1),
          "IOBuf::FromStorageBlock: view exceeds capacity");
  SharedStorage* storage = InitCoAllocatedBlock(block, capacity, zero);
  return std::unique_ptr<IOBuf>(
      new IOBuf(storage->buffer, capacity, storage->buffer + headroom, length, storage));
}

void IOBuf::ReleaseStorage() {
  if (storage_ == nullptr) {
    return;
  }
  if (storage_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    storage_->dispose(storage_);
  }
  storage_ = nullptr;
}

bool IOBuf::Shared() const {
  return storage_ != nullptr && storage_->refs.load(std::memory_order_acquire) > 1;
}

std::size_t IOBuf::StorageRefCount() const {
  return storage_ != nullptr ? storage_->refs.load(std::memory_order_acquire) : 0;
}

bool IOBuf::StorageEmbedded() const {
  return storage_ != nullptr &&
         storage_->buffer == reinterpret_cast<const std::uint8_t*>(storage_) +
                                 kStorageHeaderBytes;
}

std::unique_ptr<IOBuf> IOBuf::Create(std::size_t capacity, bool zero) {
  return FromStorageBlock(mem::AllocRouted(StorageBlockBytes(capacity)), capacity,
                          /*headroom=*/0, /*length=*/capacity, zero);
}

std::unique_ptr<IOBuf> IOBuf::CreateReserve(std::size_t capacity, std::size_t headroom) {
  Kassert(headroom <= capacity, "IOBuf::CreateReserve: headroom > capacity");
  return FromStorageBlock(mem::AllocRouted(StorageBlockBytes(capacity)), capacity, headroom,
                          /*length=*/0, /*zero=*/false);
}

std::unique_ptr<IOBuf> IOBuf::CreateFrame() {
  static_assert(kFrameBlockBytes == gp_internal::kSizeClasses[gp_internal::ClassFor(
                                        kFrameBlockBytes)] &&
                    kFrameBlockBytes > kStorageHeaderBytes + kFrameHeadroom,
                "IOBuf: a frame block must fill its size class and hold header + headroom");
  constexpr std::size_t kFrameBytes = kFrameBlockBytes - kStorageHeaderBytes;
  void* block = mem::AllocRoutedFor<kFrameBlockBytes>();
  mem::Stats& stats = mem::stats();
  (mem::FindOwningRoot(block) != nullptr ? stats.pool_hits : stats.pool_misses)
      .fetch_add(1, std::memory_order_relaxed);
  stats.pool_in_use.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<IOBuf> frame =
      FromStorageBlock(block, kFrameBytes, kFrameHeadroom, /*length=*/0, /*zero=*/false);
  frame->storage_->dispose = &DisposeFrame;
  return frame;
}

std::unique_ptr<IOBuf> IOBuf::CopyBuffer(const void* data, std::size_t len,
                                         std::size_t headroom) {
  auto buf = CreateReserve(len + headroom, headroom);
  std::memcpy(buf->WritableTail(), data, len);
  buf->Append(len);
  return buf;
}

std::unique_ptr<IOBuf> IOBuf::WrapBuffer(const void* data, std::size_t len) {
  auto* bytes = static_cast<std::uint8_t*>(const_cast<void*>(data));
  return std::unique_ptr<IOBuf>(new IOBuf(bytes, len, bytes, len, nullptr));
}

std::unique_ptr<IOBuf> IOBuf::TakeOwnership(void* buffer, std::size_t capacity,
                                            std::size_t length, FreeFn free_fn, void* arg) {
  auto* bytes = static_cast<std::uint8_t*>(buffer);
  auto* storage = new (mem::AllocRoutedFor<sizeof(SharedStorage)>()) SharedStorage;
  storage->buffer = bytes;
  storage->dispose = &DisposeExternal;
  storage->free_fn = free_fn;
  storage->free_arg = arg;
  return std::unique_ptr<IOBuf>(new IOBuf(bytes, capacity, bytes, length, storage));
}

IOBuf::~IOBuf() {
  // Destroy the chain iteratively: deep recursion through unique_ptr would overflow the small
  // event stacks on long chains.
  std::unique_ptr<IOBuf> rest = std::move(next_);
  while (rest != nullptr) {
    std::unique_ptr<IOBuf> next = std::move(rest->next_);
    rest = std::move(next);
  }
  ReleaseStorage();
}

void IOBuf::AppendChain(std::unique_ptr<IOBuf> chain) {
  IOBuf* tail = this;
  while (tail->next_ != nullptr) {
    tail = tail->next_.get();
  }
  tail->next_ = std::move(chain);
}

std::unique_ptr<IOBuf> IOBuf::JoinChains(std::vector<std::unique_ptr<IOBuf>> parts) {
  std::unique_ptr<IOBuf> head;
  IOBuf* tail = nullptr;
  for (auto& part : parts) {
    if (part == nullptr) {
      continue;
    }
    IOBuf* part_tail = part.get();
    while (part_tail->next_ != nullptr) {
      part_tail = part_tail->next_.get();
    }
    if (head == nullptr) {
      head = std::move(part);
    } else {
      tail->next_ = std::move(part);
    }
    tail = part_tail;
  }
  return head;
}

std::size_t IOBuf::CountChainElements() const {
  std::size_t count = 0;
  for (const IOBuf* buf = this; buf != nullptr; buf = buf->Next()) {
    ++count;
  }
  return count;
}

std::size_t IOBuf::ComputeChainDataLength() const {
  std::size_t total = 0;
  for (const IOBuf* buf = this; buf != nullptr; buf = buf->Next()) {
    total += buf->Length();
  }
  return total;
}

std::unique_ptr<IOBuf> IOBuf::CloneOne() const {
  if (storage_ != nullptr) {
    storage_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::unique_ptr<IOBuf>(new IOBuf(buffer_, capacity_, data_, length_, storage_));
}

std::unique_ptr<IOBuf> IOBuf::Clone() const {
  std::unique_ptr<IOBuf> head = CloneOne();
  IOBuf* tail = head.get();
  for (const IOBuf* buf = Next(); buf != nullptr; buf = buf->Next()) {
    tail->next_ = buf->CloneOne();
    tail = tail->next_.get();
  }
  return head;
}

std::unique_ptr<IOBuf> IOBuf::DeepClone() const {
  std::size_t total = ComputeChainDataLength();
  auto copy = Create(total);
  CopyOut(copy->WritableData(), total);
  return copy;
}

std::unique_ptr<IOBuf> IOBuf::Split(std::size_t n) {
  Kassert(n > 0, "IOBuf::Split: empty head split");
  IOBuf* buf = this;
  for (;;) {
    if (n < buf->length_) {
      // The boundary falls inside `buf`: share its storage between the two chains.
      std::unique_ptr<IOBuf> rest = buf->CloneOne();
      rest->Advance(n);
      rest->next_ = std::move(buf->next_);
      buf->TrimEnd(buf->length_ - n);
      return rest;
    }
    n -= buf->length_;
    if (n == 0 || buf->next_ == nullptr) {
      Kassert(n == 0, "IOBuf::Split: offset exceeds chain length");
      return std::move(buf->next_);
    }
    buf = buf->next_.get();
  }
}

void IOBuf::Coalesce() {
  if (next_ == nullptr) {
    return;
  }
  std::size_t total = ComputeChainDataLength();
  SharedStorage* storage =
      InitCoAllocatedBlock(mem::AllocRouted(StorageBlockBytes(total)), total, /*zero=*/false);
  std::size_t offset = 0;
  for (const IOBuf* buf = this; buf != nullptr; buf = buf->Next()) {
    std::memcpy(storage->buffer + offset, buf->Data(), buf->Length());
    offset += buf->Length();
  }
  // Release old storage and the rest of the chain, then adopt the flat buffer.
  next_.reset();
  ReleaseStorage();
  buffer_ = storage->buffer;
  capacity_ = total;
  data_ = storage->buffer;
  length_ = total;
  storage_ = storage;
}

void IOBuf::CopyOut(void* dst, std::size_t len, std::size_t offset) const {
  auto* out = static_cast<std::uint8_t*>(dst);
  const IOBuf* buf = this;
  // Skip to the element containing `offset`.
  while (buf != nullptr && offset >= buf->Length()) {
    offset -= buf->Length();
    buf = buf->Next();
  }
  while (len > 0) {
    Kassert(buf != nullptr, "IOBuf::CopyOut: chain too short");
    std::size_t here = buf->Length() - offset;
    std::size_t take = here < len ? here : len;
    std::memcpy(out, buf->Data() + offset, take);
    out += take;
    len -= take;
    offset = 0;
    buf = buf->Next();
  }
}

void DataPointer::CopyOut(void* dst, std::size_t len) const {
  Kassert(buf_ != nullptr || len == 0, "DataPointer::CopyOut: past end");
  if (len == 0) {
    return;
  }
  buf_->CopyOut(dst, len, offset_);
}

}  // namespace ebbrt
