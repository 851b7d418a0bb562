//go:build !linux

package stagecache

import "os"

// fileStamp reports no stamp: without a known inode and ctime layout the
// memo vouches for nothing, and every file is hashed.
func fileStamp(fi os.FileInfo) (stamp, bool) { return stamp{size: fi.Size()}, false }
