// WaitList: the queues waiting on one device event (paper §5.2: an event wakes exactly the I/O
// waiting on it), or a libOS's ready list. A queue waits on at most one list at a time, so it
// embeds one WaitLink (LibOS::PendingOps): waiting never allocates. Notify moves each link to
// the ready list it was added with: a link fires once, at the first Notify after it was added.
// Either side may die first: a list unlinks its links, and a link unlinks itself.

#ifndef SRC_RUNTIME_WAIT_LIST_H_
#define SRC_RUNTIME_WAIT_LIST_H_

#include <cstdint>

namespace demi {

class WaitList;

class WaitLink {
 public:
  WaitLink() = default;
  WaitLink(const WaitLink&) = delete;
  WaitLink& operator=(const WaitLink&) = delete;
  ~WaitLink() { Unlink(); }

  bool linked() const { return list_ != nullptr; }
  uint64_t key() const { return key_; }  // as WaitList::Add tagged it

 private:
  friend class WaitList;
  void Unlink();
  WaitList* list_ = nullptr;  // the list it is on, or null
  WaitLink* prev_ = nullptr;
  WaitLink* next_ = nullptr;
  WaitList* ready_ = nullptr;
  uint64_t key_ = 0;
};

class WaitList {
 public:
  WaitList() = default;
  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;
  ~WaitList() {
    while (PopFront() != nullptr) {
    }
  }

  // Adds the unlinked `link` at the tail, tagged with `key`; Notify moves it to `ready`.
  void Add(WaitLink& link, WaitList& ready, uint64_t key) {
    link.ready_ = &ready;
    link.key_ = key;
    link.list_ = this;
    link.prev_ = tail_;
    (tail_ == nullptr ? head_ : tail_->next_) = &link;
    tail_ = &link;
  }

  // Moves every link to its ready list, oldest first. Cheap when nobody waits.
  void Notify() {
    while (WaitLink* link = PopFront()) {
      link->ready_->Add(*link, *link->ready_, link->key_);
    }
  }

  // Unlinks and returns the oldest link, or null when the list is empty.
  WaitLink* PopFront() {
    WaitLink* link = head_;
    if (link != nullptr) {
      link->Unlink();
    }
    return link;
  }

 private:
  friend class WaitLink;
  WaitLink* head_ = nullptr;  // the oldest link
  WaitLink* tail_ = nullptr;  // the newest
};

inline void WaitLink::Unlink() {
  if (list_ != nullptr) {
    (prev_ == nullptr ? list_->head_ : prev_->next_) = next_;
    (next_ == nullptr ? list_->tail_ : next_->prev_) = prev_;
    list_ = nullptr;
    prev_ = next_ = nullptr;
  }
}

}  // namespace demi

#endif  // SRC_RUNTIME_WAIT_LIST_H_
