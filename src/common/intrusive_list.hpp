/**
 * @file
 * Intrusive doubly-linked list.
 *
 * For lists whose entries are objects with a stable address rather than
 * pages: HPE's page-set chain, whose entries are page sets spliced
 * between the old, middle and new partitions, and CLOCK-Pro's three-hand
 * clock, whose hands point at nodes.  Both draw their nodes from an
 * IntrusivePool.  The pre-rewrite policies kept as test references
 * (tests/reference_policies.hpp) use it too.  Per-page orderings use
 * DensePageChain (mem/page_index.hpp) instead.  Nodes embed their own
 * links; the list never allocates.
 */

#pragma once

#include <cstddef>
#include <deque>
#include <iterator>
#include <memory>
#include <vector>

#include "common/log.hpp"

namespace hpe {

/** Base class providing the embedded links; derive list elements from it. */
class IntrusiveNode
{
  public:
    IntrusiveNode() = default;

    // Nodes hold position state; copying them would corrupt the list.
    IntrusiveNode(const IntrusiveNode &) = delete;
    IntrusiveNode &operator=(const IntrusiveNode &) = delete;

    /** True while the node is a member of some list. */
    bool linked() const { return prev_ != nullptr; }

  private:
    template <typename T>
    friend class IntrusiveList;

    IntrusiveNode *prev_ = nullptr;
    IntrusiveNode *next_ = nullptr;
};

/**
 * Doubly-linked list of T, where T derives from IntrusiveNode.
 *
 * Head is the LRU end, tail is the MRU end (by the conventions of the
 * eviction code in this project).  All operations are O(1) except size
 * checks over ranges, and the list is iterable front-to-back.
 */
template <typename T>
class IntrusiveList
{
  public:
    IntrusiveList()
    {
        sentinel_.prev_ = &sentinel_;
        sentinel_.next_ = &sentinel_;
    }

    IntrusiveList(const IntrusiveList &) = delete;
    IntrusiveList &operator=(const IntrusiveList &) = delete;

    bool empty() const { return sentinel_.next_ == &sentinel_; }
    std::size_t size() const { return size_; }

    /** First element (LRU end); list must be nonempty. */
    T &
    front()
    {
        HPE_ASSERT(!empty(), "front() on empty list");
        return *static_cast<T *>(sentinel_.next_);
    }

    /** Last element (MRU end); list must be nonempty. */
    T &
    back()
    {
        HPE_ASSERT(!empty(), "back() on empty list");
        return *static_cast<T *>(sentinel_.prev_);
    }

    /** Insert @p node at the front (LRU end). */
    void
    pushFront(T &node)
    {
        insertAfter(sentinel_, node);
    }

    /** Insert @p node at the back (MRU end). */
    void
    pushBack(T &node)
    {
        insertAfter(*sentinel_.prev_, node);
    }

    /** Insert @p node immediately before @p pos (pos must be linked here). */
    void
    insertBefore(T &pos, T &node)
    {
        insertAfter(*static_cast<IntrusiveNode &>(pos).prev_, node);
    }

    /** Unlink @p node from the list. */
    void
    remove(T &node)
    {
        IntrusiveNode &n = node;
        HPE_ASSERT(n.linked(), "remove() of unlinked node");
        n.prev_->next_ = n.next_;
        n.next_->prev_ = n.prev_;
        n.prev_ = nullptr;
        n.next_ = nullptr;
        --size_;
    }

    /** Move an already-linked @p node to the back (MRU end). */
    void
    moveToBack(T &node)
    {
        remove(node);
        pushBack(node);
    }

    /**
     * Move every node of @p other to the back of this list in O(1),
     * preserving their relative order; @p other is left empty.
     */
    void
    spliceBack(IntrusiveList &other)
    {
        if (other.empty())
            return;
        IntrusiveNode *first = other.sentinel_.next_;
        IntrusiveNode *last = other.sentinel_.prev_;
        first->prev_ = sentinel_.prev_;
        sentinel_.prev_->next_ = first;
        last->next_ = &sentinel_;
        sentinel_.prev_ = last;
        size_ += other.size_;
        other.sentinel_.next_ = &other.sentinel_;
        other.sentinel_.prev_ = &other.sentinel_;
        other.size_ = 0;
    }

    /** Successor of @p node, or nullptr at the tail. */
    T *
    next(T &node)
    {
        IntrusiveNode *n = static_cast<IntrusiveNode &>(node).next_;
        return n == &sentinel_ ? nullptr : static_cast<T *>(n);
    }

    /** Predecessor of @p node, or nullptr at the head. */
    T *
    prev(T &node)
    {
        IntrusiveNode *n = static_cast<IntrusiveNode &>(node).prev_;
        return n == &sentinel_ ? nullptr : static_cast<T *>(n);
    }

    /** Minimal forward iterator so the chain can be range-traversed. */
    class iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = T *;
        using reference = T &;

        iterator(IntrusiveNode *node, const IntrusiveNode *sentinel)
            : node_(node), sentinel_(sentinel)
        {}

        reference operator*() const { return *static_cast<T *>(node_); }
        pointer operator->() const { return static_cast<T *>(node_); }

        iterator &
        operator++()
        {
            node_ = node_->next_;
            return *this;
        }

        iterator
        operator++(int)
        {
            iterator tmp = *this;
            ++*this;
            return tmp;
        }

        bool operator==(const iterator &o) const { return node_ == o.node_; }

      private:
        IntrusiveNode *node_;
        const IntrusiveNode *sentinel_;
    };

    iterator begin() { return iterator(sentinel_.next_, &sentinel_); }
    iterator end() { return iterator(&sentinel_, &sentinel_); }

  private:
    void
    insertAfter(IntrusiveNode &pos, T &node)
    {
        IntrusiveNode &n = node;
        HPE_ASSERT(!n.linked(), "inserting already-linked node");
        n.prev_ = &pos;
        n.next_ = pos.next_;
        pos.next_->prev_ = &n;
        pos.next_ = &n;
        ++size_;
    }

    IntrusiveNode sentinel_;
    std::size_t size_ = 0;
};

/**
 * Storage for list nodes: nodes keep stable addresses, and released nodes
 * are reused before a new one is allocated, so a list whose population
 * churns at a steady size stops allocating once it is warm.
 */
template <typename T>
class IntrusivePool
{
  public:
    /** A default-constructed node. */
    T &
    acquire()
    {
        if (free_.empty())
            return nodes_.emplace_back();
        T *node = free_.back();
        free_.pop_back();
        std::destroy_at(node);
        return *std::construct_at(node);
    }

    /** Return @p node, which must be unlinked, for reuse. */
    void
    release(T &node)
    {
        HPE_ASSERT(!static_cast<IntrusiveNode &>(node).linked(),
                   "releasing a linked node");
        free_.push_back(&node);
    }

  private:
    std::deque<T> nodes_;
    std::vector<T *> free_;
};

} // namespace hpe
