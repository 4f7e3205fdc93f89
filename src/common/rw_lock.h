#ifndef SOFTDB_COMMON_RW_LOCK_H_
#define SOFTDB_COMMON_RW_LOCK_H_

#include <pthread.h>

namespace softdb {

/// A reader/writer lock that prefers writers: once a writer waits, new
/// readers queue behind it, so a stream of overlapping readers cannot
/// starve it. glibc's default rwlock, which backs std::shared_mutex,
/// prefers readers. Readers must not nest: a thread that holds the lock
/// shared and asks for it again deadlocks behind a waiting writer. Usable
/// with std::unique_lock and std::shared_lock.
class RwLock {
 public:
  RwLock() {
    pthread_rwlockattr_t attr;
    pthread_rwlockattr_init(&attr);
    pthread_rwlockattr_setkind_np(&attr,
                                  PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP);
    pthread_rwlock_init(&lock_, &attr);
    pthread_rwlockattr_destroy(&attr);
  }
  ~RwLock() { pthread_rwlock_destroy(&lock_); }

  RwLock(const RwLock&) = delete;
  RwLock& operator=(const RwLock&) = delete;

  void lock() { pthread_rwlock_wrlock(&lock_); }
  void unlock() { pthread_rwlock_unlock(&lock_); }
  void lock_shared() { pthread_rwlock_rdlock(&lock_); }
  void unlock_shared() { pthread_rwlock_unlock(&lock_); }

 private:
  pthread_rwlock_t lock_;
};

}  // namespace softdb

#endif  // SOFTDB_COMMON_RW_LOCK_H_
