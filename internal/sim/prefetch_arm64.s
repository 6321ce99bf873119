#include "textflag.h"

// func prefetchEvent(ev *event)
TEXT ·prefetchEvent(SB), NOSPLIT, $0-8
	MOVD	ev+0(FP), R0
	PRFM	(R0), PLDL1KEEP
	RET

// func prefetchFire(h Handler, arg any)
TEXT ·prefetchFire(SB), NOSPLIT, $0-32
	MOVD	h_data+8(FP), R0
	PRFM	(R0), PLDL1KEEP
	MOVD	arg_data+24(FP), R0
	PRFM	(R0), PLDL1KEEP
	RET
