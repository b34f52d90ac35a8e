/**
 * @file
 * A vector with inline storage for the first N elements, for the
 * simulator's per-event payloads (per-thread writeback values, lane
 * addresses, texture lane requests, cache port lists). These are sized by
 * the machine's thread/port count — almost always <= N — so the common
 * case never touches the heap, eliminating the per-instruction
 * malloc/free churn a std::vector payload costs. Larger machines
 * (numThreads > N sweeps) transparently spill to the heap and keep the
 * exact std::vector semantics the timing model relies on.
 *
 * clear() keeps whatever capacity was acquired, so a container that is
 * reused in place (a uop's arena slot, a cache pipe slot) keeps its
 * spilled heap block instead of reallocating it every instruction.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <new>
#include <utility>

namespace vortex {

/** Inline-capacity vector: no heap traffic while size() <= N. */
template <typename T, size_t N>
class SmallVec
{
  public:
    /** An empty vector using the inline storage. */
    SmallVec() = default;

    /** Destroys the elements and frees any spilled heap block. */
    ~SmallVec()
    {
        destroyAll();
        releaseHeap();
    }

    /** Copies @p o's elements (capacity is not copied). */
    SmallVec(const SmallVec& o) { append(o.begin(), o.end()); }

    /** Steals @p o's heap block when spilled, else moves elementwise. */
    SmallVec(SmallVec&& o) noexcept { moveFrom(o); }

    /** Copy-assign @p o's elements. */
    SmallVec&
    operator=(const SmallVec& o)
    {
        if (this != &o)
            assign(o.begin(), o.end());
        return *this;
    }

    /** Move-assign: steals @p o's heap block when spilled. */
    SmallVec&
    operator=(SmallVec&& o) noexcept
    {
        if (this != &o) {
            destroyAll();
            releaseHeap();
            moveFrom(o);
        }
        return *this;
    }

    //
    // std::vector-compatible observers.
    //
    size_t size() const { return size_; }           ///< element count
    bool empty() const { return size_ == 0; }       ///< no elements?
    size_t capacity() const { return cap_; }        ///< without realloc
    T* begin() { return data_; }                    ///< mutable begin
    T* end() { return data_ + size_; }              ///< mutable end
    const T* begin() const { return data_; }        ///< const begin
    const T* end() const { return data_ + size_; }  ///< const end
    T& operator[](size_t i) { return data_[i]; }    ///< unchecked index
    const T& operator[](size_t i) const { return data_[i]; } ///< const
    T& front() { return data_[0]; }                 ///< first element
    const T& front() const { return data_[0]; }     ///< first (const)
    T& back() { return data_[size_ - 1]; }          ///< last element
    const T& back() const { return data_[size_ - 1]; } ///< last (const)

    /** Destroy every element; capacity (inline or heap) is retained. */
    void
    clear()
    {
        destroyAll();
        size_ = 0;
    }

    /** Ensure room for @p n elements without further allocation. The
     *  capacity at least doubles, so a port list that keeps merging
     *  reallocates O(log n) times, not once per merge. */
    void
    reserve(size_t n)
    {
        if (n > cap_)
            grow(n > 2 * cap_ ? n : 2 * cap_);
    }

    /** Replace the contents with @p n copies of @p v. */
    void
    assign(size_t n, const T& v)
    {
        clear();
        reserve(n);
        for (size_t i = 0; i < n; ++i)
            ::new (static_cast<void*>(data_ + i)) T(v);
        size_ = n;
    }

    /** Replace the contents with the range [@p first, @p last). */
    template <typename It>
    void
    assign(It first, It last)
    {
        clear();
        append(first, last);
    }

    /** Append a copy of @p v (safe for self-insertion, as std::vector). */
    void
    push_back(const T& v)
    {
        if (size_ == cap_) {
            // v may alias an element of this vector: secure it before
            // grow() frees the old buffer.
            T tmp(v);
            grow(cap_ * 2);
            ::new (static_cast<void*>(data_ + size_)) T(std::move(tmp));
        } else {
            ::new (static_cast<void*>(data_ + size_)) T(v);
        }
        ++size_;
    }

    /** Append @p v by move (safe for self-insertion, as std::vector). */
    void
    push_back(T&& v)
    {
        if (size_ == cap_) {
            T tmp(std::move(v));
            grow(cap_ * 2);
            ::new (static_cast<void*>(data_ + size_)) T(std::move(tmp));
        } else {
            ::new (static_cast<void*>(data_ + size_)) T(std::move(v));
        }
        ++size_;
    }

    /** Append the range [@p first, @p last). */
    template <typename It>
    void
    append(It first, It last)
    {
        reserve(size_ + static_cast<size_t>(std::distance(first, last)));
        for (; first != last; ++first)
            push_back(*first);
    }

    /** Elementwise equality. */
    bool
    operator==(const SmallVec& o) const
    {
        if (size_ != o.size_)
            return false;
        for (size_t i = 0; i < size_; ++i) {
            if (!(data_[i] == o.data_[i]))
                return false;
        }
        return true;
    }

  private:
    T* inlineData() { return reinterpret_cast<T*>(inline_); }

    bool onHeap() const
    {
        return data_ != reinterpret_cast<const T*>(inline_);
    }

    void
    destroyAll()
    {
        for (size_t i = 0; i < size_; ++i)
            data_[i].~T();
    }

    /** Free the heap block and fall back to inline storage. */
    void
    releaseHeap()
    {
        if (onHeap())
            ::operator delete(data_);
        data_ = inlineData();
        cap_ = N;
        size_ = 0;
    }

    void
    grow(size_t new_cap)
    {
        if (new_cap < size_ + 1)
            new_cap = size_ + 1;
        T* p = static_cast<T*>(::operator new(new_cap * sizeof(T)));
        for (size_t i = 0; i < size_; ++i) {
            ::new (static_cast<void*>(p + i)) T(std::move(data_[i]));
            data_[i].~T();
        }
        if (onHeap())
            ::operator delete(data_);
        data_ = p;
        cap_ = new_cap;
    }

    /** Take @p o's contents; leaves @p o empty (inline, capacity N). */
    void
    moveFrom(SmallVec& o) noexcept
    {
        if (o.onHeap()) {
            data_ = o.data_;
            size_ = o.size_;
            cap_ = o.cap_;
            o.data_ = o.inlineData();
            o.size_ = 0;
            o.cap_ = N;
            return;
        }
        data_ = inlineData();
        cap_ = N;
        size_ = o.size_;
        for (size_t i = 0; i < size_; ++i) {
            ::new (static_cast<void*>(data_ + i)) T(std::move(o.data_[i]));
            o.data_[i].~T();
        }
        o.size_ = 0;
    }

    alignas(T) unsigned char inline_[N * sizeof(T)]; ///< inline storage
    T* data_ = inlineData();  ///< inline_ until the first spill
    size_t size_ = 0;         ///< live element count
    size_t cap_ = N;          ///< current capacity (>= N)
};

} // namespace vortex
