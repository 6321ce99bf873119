#include "textflag.h"

// func prefetchEvent(ev *event)
TEXT ·prefetchEvent(SB), NOSPLIT, $0-8
	MOVQ	ev+0(FP), AX
	PREFETCHT0	(AX)
	RET

// func prefetchFire(h Handler, arg any)
TEXT ·prefetchFire(SB), NOSPLIT, $0-32
	MOVQ	h_data+8(FP), AX
	PREFETCHT0	(AX)
	MOVQ	arg_data+24(FP), AX
	PREFETCHT0	(AX)
	RET
