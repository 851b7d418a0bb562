package stagecache

import (
	"os"
	"syscall"
)

// fileStamp reads the memo's view of a file from its stat. ok is false
// when the stat carries no inode or ctime, and then the file is hashed.
func fileStamp(fi os.FileInfo) (st stamp, ok bool) {
	st.size = fi.Size()
	sys, ok := fi.Sys().(*syscall.Stat_t)
	if !ok {
		return st, false
	}
	st.dev, st.ino = uint64(sys.Dev), uint64(sys.Ino)
	st.mtime, st.ctime = sys.Mtim.Nano(), sys.Ctim.Nano()
	return st, true
}
